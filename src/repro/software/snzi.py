"""Scalable Non-Zero Indicator (SNZI) software baseline.

SNZI keeps a global reference count in a tree of counters: threads increment
and decrement at their own leaf and propagate an update to the parent only
when the leaf's surplus crosses zero, so readers only need to check the root
to learn whether the count is non-zero.  This makes non-zero checks cheap and
spreads update contention across leaves, at the cost of extra space and of
propagation traffic whenever leaf surpluses oscillate around zero (which is
exactly the low-count regime of the paper's Fig. 13a, where SNZI loses to a
flat counter).

This model generates the *memory access stream* a SNZI implementation would
issue — atomic updates to leaf/intermediate nodes, plus a load of the root on
queries — so the coherence simulator can compare it against flat XADD counters
and COUP commutative updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.commutative import CommutativeOp
from repro.sim.access import MemoryAccess, Trace
from repro.workloads.base import AddressMap


@dataclass
class SnziNodeState:
    """Surplus held at one SNZI tree node for one shared object."""

    surplus: int = 0


class SnziTree:
    """A binary SNZI tree with one leaf per thread, per shared object.

    The functional model tracks per-node surpluses so the generated access
    stream contains parent propagation exactly when a real SNZI would perform
    it (leaf surplus 0 -> 1 on arrival, 1 -> 0 on departure).
    """

    def __init__(
        self,
        addresses: AddressMap,
        object_id: int,
        n_threads: int,
        *,
        node_bytes: int = 64,
    ) -> None:
        self.addresses = addresses
        self.object_id = object_id
        self.n_leaves = max(1, n_threads)
        self.node_bytes = node_bytes
        # Heap-style tree layout: node 0 is the root.
        self.n_nodes = 2 * self.n_leaves - 1
        self._state: Dict[int, SnziNodeState] = {}

    def _node_state(self, node: int) -> SnziNodeState:
        state = self._state.get(node)
        if state is None:
            state = SnziNodeState()
            self._state[node] = state
        return state

    def _node_address(self, node: int) -> int:
        # Nodes are padded to a cache line each to avoid false sharing, as the
        # SNZI paper recommends; this is part of SNZI's space overhead.
        return self.addresses.element(
            f"snzi_obj{self.object_id}", node, self.node_bytes
        )

    def _leaf_of_thread(self, thread_id: int) -> int:
        return (self.n_nodes - self.n_leaves) + (thread_id % self.n_leaves)

    @staticmethod
    def _parent(node: int) -> int:
        return (node - 1) // 2

    def arrive(self, thread_id: int) -> Trace:
        """Accesses performed by an increment (reference acquisition)."""
        trace: Trace = []
        node = self._leaf_of_thread(thread_id)
        while True:
            state = self._node_state(node)
            trace.append(
                MemoryAccess.atomic(self._node_address(node), CommutativeOp.ADD_I64, 1, think=4)
            )
            state.surplus += 1
            if state.surplus != 1 or node == 0:
                break
            node = self._parent(node)
        return trace

    def depart(self, thread_id: int) -> Trace:
        """Accesses performed by a decrement (reference release)."""
        trace: Trace = []
        node = self._leaf_of_thread(thread_id)
        while True:
            state = self._node_state(node)
            trace.append(
                MemoryAccess.atomic(self._node_address(node), CommutativeOp.ADD_I64, -1, think=4)
            )
            state.surplus -= 1
            if state.surplus != 0 or node == 0:
                break
            node = self._parent(node)
        return trace

    def query(self, _thread_id: int) -> Trace:
        """Accesses performed by a non-zero check (read of the root)."""
        return [MemoryAccess.load(self._node_address(0), think=2)]

    @property
    def footprint_bytes(self) -> int:
        """Space overhead of the tree for this object."""
        return self.n_nodes * self.node_bytes
