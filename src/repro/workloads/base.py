"""Workload framework.

A workload describes a parallel program at the level the coherence protocol
cares about: which cores issue which memory accesses (loads, stores, atomics,
commutative updates) to which addresses, in which order, and with how much
independent compute between them.  Each workload can be *generated* for any
core count, producing a :class:`~repro.sim.columnar.ColumnarTrace`: one
packed array per core, built directly by the workload's one builder.  The
object form (:class:`~repro.sim.access.WorkloadTrace`) is a view unpacked
from it.

Workloads also support *variants* that model the software techniques the
paper compares against (Sec. 2.2 / Sec. 4): the same logical computation can
be expressed with conventional atomic operations, with COUP commutative
updates, with remote memory operations, or with core- or socket-level
privatization, and the resulting traces differ exactly as the real programs'
access streams would.  The SNZI and Refcache baselines of the
reference-counting benchmarks live in :mod:`repro.software`.
"""

from __future__ import annotations

import abc
import enum
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.sim.access import AccessType, WorkloadTrace
from repro.sim.columnar import VK_NONE, ColumnarTrace, code_for, encode_value


class UpdateStyle(enum.Enum):
    """How a workload expresses its updates to shared data."""

    #: Conventional atomic read-modify-write instructions (the paper's baseline).
    ATOMIC = "atomic"
    #: COUP commutative-update instructions.
    COMMUTATIVE = "commutative"
    #: Remote memory operations shipped to the home shared-cache bank.
    REMOTE = "remote"
    #: Plain stores (only correct when the data is private to the thread).
    PRIVATE_STORE = "private_store"


#: Access type of an update in each shared-data update style.
_UPDATE_ACCESS_TYPE = {
    UpdateStyle.ATOMIC: AccessType.ATOMIC_RMW,
    UpdateStyle.COMMUTATIVE: AccessType.COMMUTATIVE_UPDATE,
    UpdateStyle.REMOTE: AccessType.REMOTE_UPDATE,
}

# Address-space layout: each workload's data structures are placed in disjoint
# regions so synthetic traces never alias accidentally.
REGION_BYTES = 1 << 28


class AddressMap:
    """Carves the simulated address space into named regions.

    Consecutive regions are staggered by an odd number of cache lines so that
    different regions do not alias onto the same cache sets (a real allocator
    would not hand out 256 MiB-aligned blocks either); without the stagger,
    workloads with many regions — e.g. one privatized replica per core — would
    suffer pathological conflict misses that no real machine would see.
    """

    #: Stagger between regions, in bytes: an odd number of 64-byte lines.
    REGION_STAGGER = 64 * 1031

    def __init__(self, base: int = 0x1000_0000) -> None:
        self._base = base
        self._regions: Dict[str, int] = {}
        self._next = base

    def region(self, name: str, size_bytes: int = REGION_BYTES) -> int:
        """Base address of a named region, allocating it on first use."""
        if name not in self._regions:
            self._regions[name] = self._next
            self._next += size_bytes + self.REGION_STAGGER
        return self._regions[name]

    def element(self, name: str, index: int, element_bytes: int = 8) -> int:
        """Byte address of the ``index``-th element of a named array."""
        return self.region(name) + index * element_bytes


@dataclass
class WorkloadStats:
    """Static characteristics of a generated workload (Table 2 reporting)."""

    name: str
    comm_op: str
    total_accesses: int
    update_accesses: int
    read_accesses: int
    total_instructions: int
    comm_op_fraction: float
    params: dict

    def as_row(self) -> dict:
        return {
            "benchmark": self.name,
            "comm_ops": self.comm_op,
            "accesses": self.total_accesses,
            "updates": self.update_accesses,
            "reads": self.read_accesses,
            "instructions": self.total_instructions,
            "comm_op_fraction": self.comm_op_fraction,
        }


class Workload(abc.ABC):
    """Base class for workload generators.

    Subclasses implement :meth:`_build_columnar`, their one trace builder,
    which emits packed per-core columns for a given core count.
    Generation is deterministic given the constructor parameters and
    ``seed``, which tests rely on — and which :meth:`trace_key` turns into a
    stable identity so the sweep engine can materialize each trace once and
    share it across protocols and machine configurations.
    """

    #: Short name used in experiment tables (matches the paper's names).
    name: str = "workload"
    #: Description of the commutative operation used, for Table 2.
    comm_op_label: str = "64b int add"

    #: Instance attributes that are generation infrastructure rather than
    #: parameters, and therefore excluded from :meth:`trace_key`.
    TRACE_KEY_EXCLUDED = frozenset({"addresses"})

    def __init__(self, *, seed: int = 42, update_style: UpdateStyle = UpdateStyle.COMMUTATIVE) -> None:
        self.seed = seed
        self.update_style = update_style
        self.addresses = AddressMap()

    # -- helpers for subclasses ------------------------------------------------

    def _rng(self, stream: int = 0) -> np.random.Generator:
        return np.random.default_rng((self.seed, stream))

    def _update_code(self, value, op=None) -> int:
        """Packed ``type_code`` of an update in the workload's update style.

        ``value`` is a representative operand (its int/float kind is folded
        into the code) and ``op`` defaults to the workload's ``op``.  Trace
        builders resolve this once per column instead of dispatching on the
        update style per element; a private store carries no op.
        """
        op = op if op is not None else getattr(self, "op", None)
        if self.update_style is UpdateStyle.PRIVATE_STORE:
            access_type, op, size = AccessType.STORE, None, 8
        else:
            access_type = _UPDATE_ACCESS_TYPE[self.update_style]
            size = op.word_bytes
        value_kind, _delta = encode_value(value)
        return code_for(access_type, op, size, value_kind)

    @staticmethod
    def _load_code(size_bytes: int = 8) -> int:
        """Packed ``type_code`` of a plain load of ``size_bytes``."""
        return code_for(AccessType.LOAD, None, size_bytes, VK_NONE)

    @staticmethod
    def split_work(n_items: int, n_cores: int) -> List[range]:
        """Contiguous block partition of ``n_items`` among ``n_cores``."""
        bounds = np.linspace(0, n_items, n_cores + 1).astype(int)
        return [range(int(bounds[i]), int(bounds[i + 1])) for i in range(n_cores)]

    def trace_key(self) -> tuple:
        """Hashable identity of the traces this workload would generate.

        Two workloads with equal keys generate identical traces for every
        core count, so the key (plus the core count and generation variant)
        is what the sweep engine's trace cache and persistent result cache
        hash.  The key covers the class and every parameter attribute:
        primitives and enums directly, and sequences of primitives as
        tuples.  An attribute of any other type makes the key unique to this
        *instance* (via a process-unique token, never ``id()``, whose values
        recur once objects are freed) — refusing to share a trace is always
        safe, silently sharing the wrong one is not.
        """
        items = []
        for attr_name, value in sorted(vars(self).items()):
            if attr_name in self.TRACE_KEY_EXCLUDED or attr_name.startswith("_"):
                continue
            if isinstance(value, enum.Enum):
                items.append((attr_name, (type(value).__name__, value.name)))
            elif value is None or isinstance(value, (bool, int, float, str)):
                items.append((attr_name, value))
            elif isinstance(value, (tuple, list)) and all(
                item is None or isinstance(item, (bool, int, float, str)) for item in value
            ):
                items.append((attr_name, tuple(value)))
            else:
                items.append((attr_name, ("unkeyable", self._unkeyable_token())))
        return (type(self).__qualname__, tuple(items))

    #: Source of process-unique tokens for unkeyable workloads.
    _unkeyable_tokens = itertools.count()

    def _unkeyable_token(self) -> int:
        """A token that is stable for this instance and never reused."""
        token = self.__dict__.get("_trace_key_token")
        if token is None:
            token = next(Workload._unkeyable_tokens)
            self._trace_key_token = token
        return token

    # -- public API --------------------------------------------------------------

    @abc.abstractmethod
    def _build_columnar(self, n_cores: int) -> ColumnarTrace:
        """Emit the packed per-core columns for ``n_cores`` cores."""

    def generate_columnar(self, n_cores: int) -> ColumnarTrace:
        """Generate the packed columnar trace for ``n_cores`` cores.

        This is the form the simulator runs and the sweep engine's caches
        store.
        """
        if n_cores <= 0:
            raise ValueError("n_cores must be positive")
        trace = self._build_columnar(n_cores)
        trace.params.setdefault("update_style", self.update_style.value)
        trace.params.setdefault("seed", self.seed)
        trace.validate()
        return trace

    def generate(self, n_cores: int) -> WorkloadTrace:
        """The object-form view of :meth:`generate_columnar`'s trace.

        One :class:`~repro.sim.access.MemoryAccess` per record, for callers
        that inspect individual accesses.
        """
        return self.generate_columnar(n_cores).to_workload()

    def stats(self, n_cores: int, trace: Optional[ColumnarTrace] = None) -> WorkloadStats:
        """Static statistics of the generated trace (Table 2).

        ``trace`` lets callers that already materialized the trace (e.g.
        through the sweep engine's trace cache) avoid regenerating it; it
        must be a trace this workload's :meth:`generate_columnar` produced
        for ``n_cores``.
        """
        if trace is None:
            trace = self.generate_columnar(n_cores)
        updates, reads = trace.update_read_counts()
        return WorkloadStats(
            name=self.name,
            comm_op=self.comm_op_label,
            total_accesses=trace.total_accesses,
            update_accesses=updates,
            read_accesses=reads,
            total_instructions=trace.total_instructions,
            comm_op_fraction=trace.commutative_fraction(),
            params=dict(trace.params),
        )

    def reference_result(self) -> Optional[Dict[int, object]]:
        """Sequentially computed expected memory values, if meaningful.

        Subclasses that update well-defined shared structures override this so
        integration tests can compare the protocol's final memory image with a
        sequential execution of the same computation.
        """
        return None
