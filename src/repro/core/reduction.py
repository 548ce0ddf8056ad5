"""Reduction unit model: the small ALU COUP adds to each shared cache bank.

The reduction unit performs the element-wise fold of partial updates during
partial and full reductions (Sec. 3.1.1).  It has two roles here:

* **functional** — fold :class:`~repro.core.commutative.DeltaBuffer` contents
  into the authoritative line value, so simulations produce correct results
  that tests can compare against a sequential reference, and
* **timing** — charge latency/occupancy per reduced line, so the Sec. 5.5
  sensitivity study (256-bit pipelined vs. 64-bit unpipelined ALU) can be
  reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

from repro.core.commutative import CommutativeOp, DeltaBuffer, reduce_partial_updates
from repro.sim.config import ReductionUnitConfig


@dataclass(slots=True)
class ReductionTiming:
    """Timing outcome of a reduction at one reduction unit."""

    #: Critical-path latency added by the ALU itself.
    latency: int
    #: Cycles the unit is occupied (throughput cost; relevant under contention).
    occupancy: int
    #: Number of partial updates folded.
    n_partials: int


class ReductionUnit:
    """A reduction ALU attached to a shared cache bank.

    The unit processes one source line (one private cache's partial update, or
    the bank's own copy) per ``cycles_per_line`` cycles, with a pipeline
    latency of ``latency_per_line``.  A reduction of ``k`` partial updates
    therefore occupies the unit for ``k * cycles_per_line`` cycles and adds
    ``latency_per_line + (k - 1) * cycles_per_line`` cycles of critical-path
    latency when pipelined (or ``k * latency_per_line`` when not).
    """

    __slots__ = ("config", "name", "busy_until", "lines_reduced", "reductions")

    def __init__(self, config: Optional[ReductionUnitConfig] = None, name: str = "rdu") -> None:
        self.config = config or ReductionUnitConfig()
        self.name = name
        #: Simulator timestamp until which the unit is busy (occupancy model).
        self.busy_until: float = 0.0
        #: Total lines reduced (statistics).
        self.lines_reduced: int = 0
        #: Total reductions performed.
        self.reductions: int = 0

    # -- timing ---------------------------------------------------------------

    def timing_for(self, n_partials: int) -> ReductionTiming:
        """Latency and occupancy of folding ``n_partials`` partial updates."""
        if n_partials <= 0:
            return ReductionTiming(latency=0, occupancy=0, n_partials=0)
        cfg = self.config
        occupancy = n_partials * cfg.cycles_per_line
        if cfg.pipelined:
            latency = cfg.latency_per_line + (n_partials - 1) * cfg.cycles_per_line
        else:
            latency = n_partials * cfg.latency_per_line
        return ReductionTiming(latency=latency, occupancy=occupancy, n_partials=n_partials)

    def schedule(self, now: float, n_partials: int) -> ReductionTiming:
        """Account a reduction starting no earlier than ``now``.

        Returns the timing including any wait for the unit to become free; the
        unit's ``busy_until`` advances by the occupancy.
        """
        timing = self.timing_for(n_partials)
        if timing.n_partials == 0:
            return timing
        start = max(now, self.busy_until)
        wait = start - now
        self.busy_until = start + timing.occupancy
        self.lines_reduced += n_partials
        self.reductions += 1
        return ReductionTiming(
            latency=int(wait) + timing.latency,
            occupancy=timing.occupancy,
            n_partials=n_partials,
        )

    # -- function -------------------------------------------------------------

    @staticmethod
    def reduce_values(
        op: CommutativeOp,
        base_values: Dict[int, object],
        buffers: Sequence[DeltaBuffer],
    ) -> Dict[int, object]:
        """Functionally fold partial updates into the authoritative copy."""
        return reduce_partial_updates(op, base_values, buffers)

    def reset_statistics(self) -> None:
        self.busy_until = 0.0
        self.lines_reduced = 0
        self.reductions = 0


def hierarchical_reduction_ops(fanouts: Iterable[int]) -> int:
    """Critical-path operation count of a hierarchical reduction.

    Sec. 3.2's example: a 128-core system with a fully shared L4 and eight
    per-socket L3s, each shared by 16 cores, performs ``8 + 16 = 24``
    operations on the critical path instead of 128 for a flat organisation.
    ``fanouts`` lists the fan-out at each level from the root downwards, e.g.
    ``[8, 16]``.
    """
    return sum(int(f) for f in fanouts)


def flat_reduction_ops(n_sharers: int) -> int:
    """Critical-path operation count of a flat (non-hierarchical) reduction."""
    return int(n_sharers)
