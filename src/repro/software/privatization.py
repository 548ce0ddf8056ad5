"""Software privatization: the software counterpart of COUP (Sec. 2.2, 4.1).

Privatization keeps one replica of the reduction variable per thread (or per
socket); threads update their replica with plain stores (or with atomics, for
socket-level sharing) and a separate *reduction phase* folds all replicas into
the shared result.  The technique removes coherence traffic from the update
phase, at the cost of

* a reduction phase whose work grows with ``n_replicas * n_elements``, and
* an ``n_replicas``-fold increase in memory footprint, which pressures the
  shared caches when the reduction variable is large (Sec. 5.3).

This module provides trace builders that turn a logical stream of updates per
core into the privatized update phase plus reduction phase, so any workload
with reduction-variable structure (histogram is the paper's example) can be
expressed in privatized form.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

from repro.core.commutative import CommutativeOp
from repro.sim.access import AccessType, MemoryAccess, Trace
from repro.workloads.base import AddressMap


class PrivatizationLevel(enum.Enum):
    """Granularity at which replicas are created."""

    #: One replica per core ("thread-local" privatization).
    CORE = "core"
    #: One replica per socket, updated with atomics by the socket's cores.
    SOCKET = "socket"


@dataclass
class PrivatizedReductionPlan:
    """Layout of a privatized reduction variable.

    Attributes
    ----------
    n_elements:
        Number of elements in the logical reduction variable.
    element_bytes:
        Size of each element.
    op:
        Commutative operation used to combine per-replica values.
    level:
        Replication granularity.
    n_replicas:
        Number of replicas (cores or sockets).
    """

    n_elements: int
    element_bytes: int
    op: CommutativeOp
    level: PrivatizationLevel
    n_replicas: int

    @property
    def footprint_bytes(self) -> int:
        """Total memory footprint of all replicas (the privatization cost)."""
        return self.n_elements * self.element_bytes * self.n_replicas


class PrivatizedReductionBuilder:
    """Builds per-core traces for a privatized reduction variable.

    The caller supplies, per core, the logical update stream as
    ``(element_index, value, think_instructions)`` tuples.  The builder
    produces:

    * an **update phase**, where each core updates its replica —
      with plain load/store pairs for core-level privatization (the replica
      is thread-private) or atomic adds for socket-level privatization
      (the replica is shared by the socket's cores), and
    * a **reduction phase**, where the elements are partitioned among cores
      and each core folds every replica's value for its elements into the
      shared result array.
    """

    def __init__(
        self,
        plan: PrivatizedReductionPlan,
        addresses: AddressMap,
        *,
        array_name: str = "reduction",
        replica_of_core: Callable[[int], int] = None,
    ) -> None:
        self.plan = plan
        self.addresses = addresses
        self.array_name = array_name
        self.replica_of_core = replica_of_core or (lambda core: core)
        #: Region base address per replica, resolved once (the trace builders
        #: compute replica addresses in O(n_replicas * n_elements) loops).
        self._replica_bases: dict = {}
        self._shared_base: int = None

    def _replica_base(self, replica: int) -> int:
        base = self._replica_bases.get(replica)
        if base is None:
            base = self.addresses.region(f"{self.array_name}_replica_{replica}")
            self._replica_bases[replica] = base
        return base

    # -- update phase -----------------------------------------------------------

    def update_phase(
        self, core_id: int, updates: Sequence[Tuple[int, object, int]]
    ) -> Trace:
        """Trace of one core's updates applied to its replica."""
        replica = self.replica_of_core(core_id)
        trace: Trace = []
        if not updates:
            # Keep region allocation lazy: a core with no updates must not
            # allocate its replica region (address layout is order-sensitive).
            return trace
        append = trace.append
        private_replica = self.plan.level is PrivatizationLevel.CORE
        base = self._replica_base(replica)
        element_bytes = self.plan.element_bytes
        op = self.plan.op
        for element, value, think in updates:
            address = base + element * element_bytes
            if private_replica:
                # Thread-private replica: read-modify-write with plain accesses.
                append(MemoryAccess(AccessType.LOAD, address, think_instructions=think))
                append(MemoryAccess(AccessType.STORE, address, think_instructions=1))
            else:
                # Socket-shared replica: atomics are still required.
                append(
                    MemoryAccess(
                        AccessType.ATOMIC_RMW,
                        address,
                        op=op,
                        value=value,
                        think_instructions=think,
                        size_bytes=op.word_bytes,
                    )
                )
        return trace

    # -- reduction phase ---------------------------------------------------------

    def reduction_phase(self, core_id: int, n_cores: int) -> Trace:
        """Trace of one core's share of the final reduction.

        Elements are block-partitioned among cores; for its elements the core
        loads every replica's value and stores the combined result into the
        shared array.  This is the phase whose cost grows with the number of
        elements and replicas, and which COUP eliminates.
        """
        trace: Trace = []
        append = trace.append
        n_elements = self.plan.n_elements
        bounds = [
            (n_elements * i) // n_cores for i in range(n_cores + 1)
        ]
        if bounds[core_id] == bounds[core_id + 1]:
            # No elements for this core: allocate nothing (see update_phase).
            return trace
        element_bytes = self.plan.element_bytes
        replica_bases = [
            self._replica_base(replica) for replica in range(self.plan.n_replicas)
        ]
        if self._shared_base is None:
            self._shared_base = self.addresses.region(f"{self.array_name}_shared")
        shared_base = self._shared_base
        load_t = AccessType.LOAD
        store_t = AccessType.STORE
        # This loop emits n_replicas * n_elements records — the largest trace
        # in the repository — so records are filled in via __new__ plus slot
        # stores, skipping constructor-call overhead (the addresses are
        # derived from validated bases, so the __init__ checks cannot fire).
        new = MemoryAccess.__new__
        for element in range(bounds[core_id], bounds[core_id + 1]):
            offset = element * element_bytes
            for base in replica_bases:
                record = new(MemoryAccess)
                record.access_type = load_t
                record.address = base + offset
                record.op = None
                record.value = None
                record.think_instructions = 1
                record.size_bytes = 8
                append(record)
            record = new(MemoryAccess)
            record.access_type = store_t
            record.address = shared_base + offset
            record.op = None
            record.value = None
            record.think_instructions = 1
            record.size_bytes = 8
            append(record)
        return trace


def socket_of_core(cores_per_socket: int) -> Callable[[int], int]:
    """Replica-assignment function for socket-level privatization."""

    def _socket(core_id: int) -> int:
        return core_id // cores_per_socket

    return _socket
