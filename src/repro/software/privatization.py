"""Software privatization: the software counterpart of COUP (Sec. 2.2, 4.1).

Privatization keeps one replica of the reduction variable per thread (or per
socket); threads update their replica with plain stores (or with atomics, for
socket-level sharing) and a separate *reduction phase* folds all replicas into
the shared result.  The technique removes coherence traffic from the update
phase, at the cost of

* a reduction phase whose work grows with ``n_replicas * n_elements``, and
* an ``n_replicas``-fold increase in memory footprint, which pressures the
  shared caches when the reduction variable is large (Sec. 5.3).

This module provides a trace builder that turns a logical stream of updates
per core into the privatized update phase plus reduction phase, as packed
columns, so any workload with reduction-variable structure (histogram is the
paper's example) can be expressed in privatized form.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.commutative import CommutativeOp
from repro.sim.access import AccessType
from repro.sim.columnar import (
    ACCESS_DTYPE,
    VK_FLOAT,
    VK_INT,
    VK_NONE,
    code_for,
    float_deltas,
    make_columns,
)

if TYPE_CHECKING:  # workloads import the baselines, not the reverse
    from repro.workloads.base import AddressMap

#: Every replica and shared-array access is a plain 8-byte load or store.
_LOAD_CODE = code_for(AccessType.LOAD, None, 8, VK_NONE)
_STORE_CODE = code_for(AccessType.STORE, None, 8, VK_NONE)


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
    """Builds per-core packed columns for a privatized reduction variable.

    The caller supplies, per core, the logical update stream as parallel
    arrays of element indices, operand values and think counts.  The builder
    produces :data:`~repro.sim.columnar.ACCESS_DTYPE` arrays for

    * an **update phase**, where each core updates its replica —
      with plain load/store pairs for core-level privatization (the replica
      is thread-private) or atomic adds for socket-level privatization
      (the replica is shared by the socket's cores), and
    * a **reduction phase**, where the elements are partitioned among cores
      and each core folds every replica's value for its elements into the
      shared result array.

    Replica and shared-array regions are allocated lazily, on a core's first
    non-empty phase, because the address layout depends on allocation order.
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
        #: Region base address per replica, resolved once.
        self._replica_bases: dict = {}
        self._shared_base: int = None

    def _replica_base(self, replica: int) -> int:
        base = self._replica_bases.get(replica)
        if base is None:
            base = self.addresses.region(f"{self.array_name}_replica_{replica}")
            self._replica_bases[replica] = base
        return base

    # -- update phase -----------------------------------------------------------

    def update_phase(self, core_id: int, elements, values=1, think=0) -> np.ndarray:
        """Columns of one core's updates applied to its replica.

        ``elements`` is the element index of each update; ``values`` (the
        atomic operand, socket level only) and ``think`` are per-update arrays
        or scalars.  At core level each update is a load (``think``
        instructions after the previous access) and a store (one after it).
        """
        elements = np.asarray(elements, dtype=np.uint64)
        if not len(elements):
            # Keep region allocation lazy: a core with no updates must not
            # allocate its replica region (address layout is order-sensitive).
            return np.empty(0, dtype=ACCESS_DTYPE)
        base = self._replica_base(self.replica_of_core(core_id))
        addresses = base + elements * self.plan.element_bytes
        if self.plan.level is PrivatizationLevel.SOCKET:
            # Socket-shared replica: atomics are still required.
            op = self.plan.op
            values = np.broadcast_to(values, elements.shape)
            if values.dtype.kind == "f":
                code = code_for(AccessType.ATOMIC_RMW, op, op.word_bytes, VK_FLOAT)
                deltas = float_deltas(values)
            else:
                code = code_for(AccessType.ATOMIC_RMW, op, op.word_bytes, VK_INT)
                deltas = values
            return make_columns(code, addresses, deltas, think)
        # Thread-private replica: read-modify-write with plain accesses.
        array = np.empty(2 * len(elements), dtype=ACCESS_DTYPE)
        array["type_code"][0::2] = _LOAD_CODE
        array["type_code"][1::2] = _STORE_CODE
        array["address"][0::2] = addresses
        array["address"][1::2] = addresses
        array["value_delta"] = 0
        array["compute_gap"][0::2] = think
        array["compute_gap"][1::2] = 1
        array["phase"] = 0
        return array

    # -- reduction phase ---------------------------------------------------------

    def reduction_phase(self, core_id: int, n_cores: int) -> np.ndarray:
        """Columns of one core's share of the final reduction.

        Elements are block-partitioned among cores; for each of its elements
        the core loads every replica's value, then stores the combined result
        into the shared array.  This is the phase whose cost grows with the
        number of elements and replicas, and which COUP eliminates.
        """
        n_elements = self.plan.n_elements
        first = (n_elements * core_id) // n_cores
        stop = (n_elements * (core_id + 1)) // n_cores
        if first == stop:
            # No elements for this core: allocate nothing (see update_phase).
            return np.empty(0, dtype=ACCESS_DTYPE)
        replica_bases = [
            self._replica_base(replica) for replica in range(self.plan.n_replicas)
        ]
        if self._shared_base is None:
            self._shared_base = self.addresses.region(f"{self.array_name}_shared")
        # One row per element: a load from each replica, then the store.
        bases = np.array(replica_bases + [self._shared_base], dtype=np.uint64)
        offsets = np.arange(first, stop, dtype=np.uint64) * self.plan.element_bytes
        codes = np.full(len(bases), _LOAD_CODE, dtype=np.uint8)
        codes[-1] = _STORE_CODE
        return make_columns(
            np.tile(codes, stop - first),
            (offsets[:, None] + bases[None, :]).ravel(),
            0,
            1,
        )


def socket_of_core(cores_per_socket: int) -> Callable[[int], int]:
    """Replica-assignment function for socket-level privatization."""

    def _socket(core_id: int) -> int:
        return core_id // cores_per_socket

    return _socket
