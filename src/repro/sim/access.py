"""Memory access trace records consumed by the timing simulator.

Workload generators emit, per core, a sequence of :class:`MemoryAccess`
records.  Each record describes one memory instruction (load, store, atomic
read-modify-write, or a COUP commutative-update instruction) plus the amount
of non-memory work executed since the previous record, so the core timing
model can interleave compute and memory time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.core.commutative import CommutativeOp


class AccessType(enum.Enum):
    """Classes of memory instructions the simulator understands."""

    LOAD = "load"
    STORE = "store"
    #: Conventional atomic read-modify-write (e.g. lock xadd, CAS loop body).
    ATOMIC_RMW = "atomic_rmw"
    #: COUP commutative-update instruction (no register result).
    COMMUTATIVE_UPDATE = "commutative_update"
    #: Remote memory operation: the update is shipped to the home shared bank.
    REMOTE_UPDATE = "remote_update"

    @property
    def is_update(self) -> bool:
        """True for access types that modify memory."""
        return self is not AccessType.LOAD

    @property
    def is_commutative(self) -> bool:
        return self in (AccessType.COMMUTATIVE_UPDATE, AccessType.REMOTE_UPDATE)


class MemoryAccess:
    """One memory instruction in a core's trace.

    A hand-written slotted class rather than a dataclass: trace generation
    constructs millions of these, so construction must stay a single call
    with inline validation.

    Attributes
    ----------
    access_type:
        The instruction class.
    address:
        Byte address accessed.
    op:
        Commutative operation type, for commutative/remote updates.
    value:
        Operand value for updates and stores (used for functional checking).
    think_instructions:
        Non-memory instructions executed since the previous access; charged
        at the core's CPI before this access issues.
    size_bytes:
        Access width in bytes.
    """

    __slots__ = (
        "access_type",
        "address",
        "op",
        "value",
        "think_instructions",
        "size_bytes",
    )

    def __init__(
        self,
        access_type: AccessType,
        address: int,
        op: Optional[CommutativeOp] = None,
        value: object = None,
        think_instructions: int = 0,
        size_bytes: int = 8,
    ) -> None:
        if address < 0:
            raise ValueError("address must be non-negative")
        if think_instructions < 0:
            raise ValueError("think_instructions must be non-negative")
        if op is None and (
            access_type is AccessType.COMMUTATIVE_UPDATE
            or access_type is AccessType.REMOTE_UPDATE
        ):
            raise ValueError("commutative updates require an operation type")
        self.access_type = access_type
        self.address = address
        self.op = op
        self.value = value
        self.think_instructions = think_instructions
        self.size_bytes = size_bytes

    def __repr__(self) -> str:
        return (
            f"MemoryAccess(access_type={self.access_type!r}, address={self.address:#x}, "
            f"op={self.op!r}, value={self.value!r}, "
            f"think_instructions={self.think_instructions}, size_bytes={self.size_bytes})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryAccess):
            return NotImplemented
        return (
            self.access_type is other.access_type
            and self.address == other.address
            and self.op is other.op
            and self.value == other.value
            and self.think_instructions == other.think_instructions
            and self.size_bytes == other.size_bytes
        )

    @classmethod
    def load(cls, address: int, *, think: int = 0, size: int = 8) -> "MemoryAccess":
        """A plain load."""
        return cls(AccessType.LOAD, address, think_instructions=think, size_bytes=size)

    @classmethod
    def store(cls, address: int, value=None, *, think: int = 0, size: int = 8) -> "MemoryAccess":
        """A plain store."""
        return cls(
            AccessType.STORE, address, value=value, think_instructions=think, size_bytes=size
        )

    @classmethod
    def atomic(
        cls,
        address: int,
        op: CommutativeOp = CommutativeOp.ADD_I64,
        value=1,
        *,
        think: int = 0,
    ) -> "MemoryAccess":
        """A conventional atomic read-modify-write (e.g. fetch-and-add)."""
        return cls(
            AccessType.ATOMIC_RMW,
            address,
            op=op,
            value=value,
            think_instructions=think,
            size_bytes=op.word_bytes,
        )

    @classmethod
    def commutative(
        cls,
        address: int,
        op: CommutativeOp,
        value,
        *,
        think: int = 0,
    ) -> "MemoryAccess":
        """A COUP commutative-update instruction."""
        return cls(
            AccessType.COMMUTATIVE_UPDATE,
            address,
            op=op,
            value=value,
            think_instructions=think,
            size_bytes=op.word_bytes,
        )

    @classmethod
    def remote_update(
        cls,
        address: int,
        op: CommutativeOp,
        value,
        *,
        think: int = 0,
    ) -> "MemoryAccess":
        """A remote memory operation sent to the home shared-cache bank."""
        return cls(
            AccessType.REMOTE_UPDATE,
            address,
            op=op,
            value=value,
            think_instructions=think,
            size_bytes=op.word_bytes,
        )


#: A per-core trace is simply an ordered list of accesses.
Trace = List[MemoryAccess]


@dataclass(slots=True)
class WorkloadTrace:
    """Traces for all cores plus workload metadata.

    ``per_core`` holds one trace per core (index == core id).  ``name`` and
    ``params`` describe the generating workload for reporting; ``phases``
    optionally mark barrier indices: ``phases[i]`` is a list giving, for each
    core, the number of accesses belonging to phases ``0..i``.  The simulator
    inserts a barrier between phases (all cores synchronise), which is how
    privatization reduction phases and iterative-algorithm supersteps are
    modelled.
    """

    name: str
    per_core: List[Trace]
    params: dict = field(default_factory=dict)
    phase_boundaries: Optional[List[List[int]]] = None

    @property
    def n_cores(self) -> int:
        return len(self.per_core)

    @property
    def total_accesses(self) -> int:
        return sum(len(trace) for trace in self.per_core)

    @property
    def total_instructions(self) -> int:
        """Total instructions (memory + think) across all cores."""
        return sum(
            len(trace) + sum(access.think_instructions for access in trace)
            for trace in self.per_core
        )

    def commutative_fraction(self) -> float:
        """Fraction of accesses that are commutative/atomic updates.

        The paper reports commutative-update instructions as a small fraction
        of all executed instructions (Sec. 5.2); this helper reproduces that
        statistic for Table 2 style reporting.
        """
        updates = sum(
            1
            for trace in self.per_core
            for access in trace
            if access.access_type in (AccessType.COMMUTATIVE_UPDATE, AccessType.ATOMIC_RMW, AccessType.REMOTE_UPDATE)
        )
        total = self.total_instructions
        return updates / total if total else 0.0

    def validate(self) -> None:
        """Sanity-check the phase structure (used by workload tests)."""
        if self.phase_boundaries is None:
            return
        for boundaries in self.phase_boundaries:
            if len(boundaries) != self.n_cores:
                raise ValueError("each phase boundary must list one index per core")
            for core_id, bound in enumerate(boundaries):
                if not 0 <= bound <= len(self.per_core[core_id]):
                    raise ValueError(
                        f"phase boundary {bound} out of range for core {core_id}"
                    )


def merge_traces(traces: Iterable[Trace]) -> Trace:
    """Concatenate several traces into one (used to build single-core runs)."""
    merged: Trace = []
    for trace in traces:
        merged.extend(trace)
    return merged


#: Names re-exported lazily from :mod:`repro.sim.columnar` so both trace
#: representations share one import home without a circular import.
_COLUMNAR_NAMES = {
    "ACCESS_DTYPE",
    "ColumnarTrace",
    "TraceCodecError",
    "as_columnar",
}


def __getattr__(name: str):
    if name in _COLUMNAR_NAMES:
        from repro.sim import columnar

        return getattr(columnar, name)
    raise AttributeError(f"module 'repro.sim.access' has no attribute {name!r}")
