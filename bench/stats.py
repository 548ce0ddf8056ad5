"""Order statistics and the rule ``bench compare`` judges a change by.

A metric whose run-to-run spread (IQR / median) exceeds its bound on
either side is unresolved, a gain needs at least nine wins in ten paired
runs and a median gap wider than the base's own IQR, and deterministic
counters must match exactly.
"""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple

#: Paired runs a gain needs, and the share of them the change must win.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def summarize(values: Sequence[float]) -> Tuple[float, float, float, int]:
    """``(median, q1, q3, n)``; the quartiles are ``statistics.quantiles``'s."""
    if not values:
        raise ValueError("no samples")
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 1
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, len(values)


def spread(values: Sequence[float]) -> float:
    """IQR as a share of the median (absolute IQR when the median is 0)."""
    median, q1, q3, _ = summarize(values)
    return (q3 - q1) / abs(median) if median else q3 - q1


def verdict(
    base: Sequence[float],
    change: Sequence[float],
    *,
    better: str,
    bound: float,
    exact: bool = False,
) -> str:
    """Judge ``change`` against ``base``: better, worse, same or unresolved.

    ``better`` is ``"lower"`` or ``"higher"``; ``bound`` is the share of the
    base median by which the change may be worse (an absolute amount when
    the base median is 0).  ``exact`` metrics are deterministic: any
    difference at all is worse.
    """
    if exact:
        return "same" if len(set(base) | set(change)) == 1 else "worse"
    sign = 1.0 if better == "lower" else -1.0
    base_median, base_q1, base_q3, _ = summarize(base)
    change_median = summarize(change)[0]
    if better == "lower":
        every_run_better = max(change) < min(base)
    else:
        every_run_better = min(change) > max(base)
    if spread(base) > bound or spread(change) > bound:
        return "better" if every_run_better else "unresolved"
    gap = change_median - base_median
    worse_by = sign * gap / abs(base_median) if base_median else sign * gap
    if worse_by > bound:
        return "worse"
    pairs = list(zip(base, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    if (
        worse_by < 0
        and len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and abs(gap) > base_q3 - base_q1
    ):
        return "better"
    return "same" if worse_by >= -bound else "unresolved"
