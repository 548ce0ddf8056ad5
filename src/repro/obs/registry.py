"""Telemetry registry: counters and phase timers for the obs subsystem.

This module is the **single sanctioned wall-clock island** of the
reproduction.  Rule D103 bans host-clock reads in result-affecting modules
(simulated time is the only clock results may depend on); telemetry, by
contrast, exists precisely to measure host time.  The resolution is
architectural: every timing read in the tree routes through this module's
:func:`clock` / :meth:`ObsRegistry.observe`, and repro-lint's
``OBS_WALLCLOCK_MODULES`` allowlist (see :mod:`repro.lint.context`) names
this file — and only this file — as exempt from D103.  Other ``repro.obs``
modules are *inside* D103's scope on purpose, so a stray ``time.time()``
outside the island is a lint error, not a convention violation.

The contract that keeps telemetry safe:

* **Telemetry never feeds results.**  Nothing here is read back by the
  simulator, the protocol engines, or anything that constructs a
  :class:`~repro.sim.stats.SimulationResult`.  Counters and timers are
  write-only from the simulation's point of view.
* **Zero overhead when off.**  When ``REPRO_OBS=off`` (the default),
  :func:`repro.obs.get_registry` returns ``None`` and every instrumented
  site reduces to one attribute load plus an ``is None`` test — and those
  sites live exclusively on slow paths (stint boundaries, slow-event
  resolution), never in the per-access hot loops.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, TypedDict

__all__ = [
    "BUCKET_FLOOR_US",
    "N_BUCKETS",
    "ObsRegistry",
    "PhaseAggregate",
    "PhaseStats",
    "bucket_bound_us",
    "bucket_index",
    "clock",
    "merge_phase",
    "phase_percentile_us",
]

#: Histogram geometry: bucket ``i`` covers durations in
#: ``(2**(i-1), 2**i]`` microseconds (bucket 0: everything at or below 1us).
BUCKET_FLOOR_US = 1.0
N_BUCKETS = 24  # 1us .. ~8.4s; the last bucket absorbs the tail.


def clock() -> float:
    """Monotonic host-time read, in seconds.

    The one wall-clock call site telemetry code may use; everything in
    ``repro.obs`` (and every instrumented module outside it) takes
    timestamps through here or :meth:`ObsRegistry.clock`.
    """
    return time.perf_counter()


def bucket_index(seconds: float) -> int:
    """Histogram bucket for a duration (log2-spaced microseconds)."""
    if seconds <= 0.0:
        return 0
    index = int(seconds * 1e6).bit_length()
    return index if index < N_BUCKETS else N_BUCKETS - 1


def bucket_bound_us(index: int) -> float:
    """Upper bound (microseconds) of histogram bucket ``index``."""
    return BUCKET_FLOOR_US * (2.0**index)


class PhaseStats:
    """Accumulated timing for one named phase: count, total, max, histogram."""

    __slots__ = ("buckets", "count", "max_s", "total_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0
        self.buckets: List[int] = [0] * N_BUCKETS

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if seconds > self.max_s:
            self.max_s = seconds
        self.buckets[bucket_index(seconds)] += 1

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "buckets": list(self.buckets),
            "count": self.count,
            "max_s": self.max_s,
            "total_s": self.total_s,
        }


class ObsRegistry:
    """Process-local accumulator for telemetry counters and phase timers.

    One registry per process (workers get their own after fork/spawn).
    ``timing`` distinguishes the two enabled modes: ``counters`` keeps
    integer counters only, ``full`` additionally records phase durations.
    Instrumented code holds the registry (or ``None``) in a local/slot and
    guards each site with an ``is None`` test — the registry itself never
    branches on mode, so enabled-mode sites stay cheap too.
    """

    __slots__ = ("_counters", "_phases", "timing")

    def __init__(self, *, timing: bool) -> None:
        self.timing = timing
        self._counters: Dict[str, int] = {}
        self._phases: Dict[str, PhaseStats] = {}

    # -- counters -----------------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (created at zero on first use)."""
        counters = self._counters
        counters[name] = counters.get(name, 0) + n

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    # -- phase timing -------------------------------------------------------

    @staticmethod
    def clock() -> float:
        """Alias of module-level :func:`clock` for call sites holding only
        the registry."""
        return time.perf_counter()

    def observe(self, phase: str, seconds: float) -> None:
        """Record one duration sample under phase ``phase``."""
        stats = self._phases.get(phase)
        if stats is None:
            stats = self._phases[phase] = PhaseStats()
        stats.observe(seconds)

    def phase(self, name: str) -> Optional[PhaseStats]:
        return self._phases.get(name)

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Canonical (sorted-key) copy of the current state."""
        return {
            "counters": {name: self._counters[name] for name in sorted(self._counters)},
            "phases": {
                name: self._phases[name].to_jsonable() for name in sorted(self._phases)
            },
        }

    def delta(self, baseline: Mapping[str, object]) -> Dict[str, object]:
        """Change since ``baseline`` (an earlier :meth:`snapshot`).

        Registries accumulate for the life of the process; per-unit-of-work
        telemetry (one sweep point, one campaign) is always reported as a
        snapshot delta so long-lived workers do not smear points together.
        Counters and histogram buckets subtract; ``max_s`` cannot be
        un-maxed, so the delta keeps the current maximum.
        """
        base_counters = baseline.get("counters", {})
        base_phases = baseline.get("phases", {})
        if not isinstance(base_counters, Mapping):  # defensive: foreign JSON
            base_counters = {}
        if not isinstance(base_phases, Mapping):
            base_phases = {}
        counters: Dict[str, int] = {}
        for name in sorted(self._counters):
            before = base_counters.get(name, 0)
            changed = self._counters[name] - (before if isinstance(before, int) else 0)
            if changed:
                counters[name] = changed
        phases: Dict[str, object] = {}
        for name in sorted(self._phases):
            stats = self._phases[name]
            count = stats.count
            total = stats.total_s
            buckets = list(stats.buckets)
            before_phase = base_phases.get(name)
            if isinstance(before_phase, Mapping):
                before_count = before_phase.get("count", 0)
                before_total = before_phase.get("total_s", 0.0)
                before_buckets = before_phase.get("buckets", [])
                if isinstance(before_count, int):
                    count -= before_count
                if isinstance(before_total, (int, float)):
                    total -= float(before_total)
                if isinstance(before_buckets, list):
                    buckets = [
                        value
                        - (
                            before_buckets[i]
                            if i < len(before_buckets)
                            and isinstance(before_buckets[i], int)
                            else 0
                        )
                        for i, value in enumerate(buckets)
                    ]
            if count > 0:
                phases[name] = {
                    "buckets": buckets,
                    "count": count,
                    "max_s": stats.max_s,
                    "total_s": total,
                }
        return {"counters": counters, "phases": phases}

    def clear(self) -> None:
        self._counters.clear()
        self._phases.clear()


class PhaseAggregate(TypedDict):
    """JSON-shaped aggregate of one phase across many serialized samples."""

    buckets: List[int]
    count: int
    max_s: float
    total_s: float


def merge_phase(
    into: Dict[str, PhaseAggregate], name: str, sample: Mapping[str, object]
) -> None:
    """Fold one serialized phase record into an aggregate dict.

    Shared by the event folder and the report: ``sample`` is a
    ``PhaseStats.to_jsonable()``-shaped mapping (possibly a delta read back
    from a JSONL segment); malformed fields are ignored rather than raised,
    because fold paths must degrade silently on foreign data.
    """
    count = sample.get("count", 0)
    total = sample.get("total_s", 0.0)
    max_s = sample.get("max_s", 0.0)
    buckets = sample.get("buckets", [])
    if not isinstance(count, int) or count <= 0:
        return
    entry = into.setdefault(
        name,
        PhaseAggregate(buckets=[0] * N_BUCKETS, count=0, max_s=0.0, total_s=0.0),
    )
    entry["count"] += count
    if isinstance(total, (int, float)):
        entry["total_s"] += float(total)
    if isinstance(max_s, (int, float)):
        entry["max_s"] = max(entry["max_s"], float(max_s))
    if isinstance(buckets, list):
        merged = entry["buckets"]
        for i, value in enumerate(buckets[:N_BUCKETS]):
            if isinstance(value, int):
                merged[i] += value


def phase_percentile_us(phase: Mapping[str, object], fraction: float) -> Optional[float]:
    """Approximate percentile (microseconds) from a phase's histogram.

    Returns the upper bound of the first bucket at which the cumulative
    sample count reaches ``fraction`` of the total; ``None`` when the phase
    holds no samples or no histogram.
    """
    count = phase.get("count", 0)
    buckets = phase.get("buckets", [])
    if not isinstance(count, int) or count <= 0 or not isinstance(buckets, list):
        return None
    threshold = fraction * count
    seen = 0
    for index, value in enumerate(buckets):
        if isinstance(value, int):
            seen += value
        if seen >= threshold:
            return bucket_bound_us(index)
    return bucket_bound_us(len(buckets) - 1)
