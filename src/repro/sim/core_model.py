"""Core timing model.

The paper simulates Nehalem-like out-of-order cores with zsim; this
reproduction uses a much simpler model: non-memory instructions retire at a
fixed CPI, atomic read-modify-write sequences pay a fixed µop overhead
(load-linked, execute, store-conditional, store-load fence), and
commutative-update instructions pay a smaller overhead (they produce no
register result but keep the implicit fence for TSO, Sec. 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.access import AccessType, MemoryAccess
from repro.sim.config import CoreConfig


@dataclass(slots=True)
class CoreTimingModel:
    """Charges compute cycles for the non-memory part of the instruction stream.

    The reference statement of the issue-timing rule.  The simulator does
    not use it: :meth:`CoherenceProtocol.make_step` hoists the same
    constants from ``config.core``, with the same ``float`` conversions, and
    ``tests/sim/test_access_api.py`` replays simulations against this model.
    """

    config: CoreConfig

    def think_cycles(self, access: MemoryAccess) -> float:
        """Cycles spent on the instructions preceding this access."""
        return access.think_instructions * self.config.cycles_per_instruction

    def issue_overhead(self, access: MemoryAccess) -> float:
        """Core-side overhead of the access itself, beyond memory latency."""
        if access.access_type is AccessType.ATOMIC_RMW:
            return float(self.config.atomic_uop_overhead)
        if access.access_type in (AccessType.COMMUTATIVE_UPDATE, AccessType.REMOTE_UPDATE):
            return float(self.config.commutative_uop_overhead)
        return 0.0

    def cycles_for(self, access: MemoryAccess, memory_latency: float) -> float:
        """Total cycles this access occupies the core."""
        return self.think_cycles(access) + self.issue_overhead(access) + memory_latency
