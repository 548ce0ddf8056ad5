"""Scalable Non-Zero Indicator (SNZI) software baseline.

SNZI keeps a global reference count in a tree of counters: threads increment
and decrement at their own leaf and propagate an update to the parent only
when the leaf's surplus crosses zero, so readers only need to check the root
to learn whether the count is non-zero.  This makes non-zero checks cheap and
spreads update contention across leaves, at the cost of extra space and of
propagation traffic whenever leaf surpluses oscillate around zero (which is
exactly the low-count regime of the paper's Fig. 13a, where SNZI loses to a
flat counter).

This model appends the *memory access stream* a SNZI implementation would
issue — atomic updates to leaf/intermediate nodes, plus a load of the root on
queries — to a trace's packed columns, so the coherence simulator can compare
it against flat XADD counters and COUP commutative updates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.core.commutative import CommutativeOp
from repro.sim.access import AccessType
from repro.sim.columnar import VK_INT, VK_NONE, ColumnBuilder, code_for

if TYPE_CHECKING:  # workloads import the baselines, not the reverse
    from repro.workloads.base import AddressMap

#: Packed codes of SNZI's accesses: a 64-bit atomic add to a node, and a
#: load of the root.
_NODE_ADD_CODE = code_for(AccessType.ATOMIC_RMW, CommutativeOp.ADD_I64, 8, VK_INT)
_ROOT_LOAD_CODE = code_for(AccessType.LOAD, None, 8, VK_NONE)
#: Instructions per node update.
_NODE_THINK = 4


class SnziTree:
    """A binary SNZI tree with one leaf per thread, per shared object.

    The functional model tracks per-node surpluses so the generated access
    stream contains parent propagation exactly when a real SNZI would perform
    it (leaf surplus 0 -> 1 on arrival, 1 -> 0 on departure).  Each operation
    appends its accesses to a :class:`~repro.sim.columnar.ColumnBuilder`; the
    tree's address region is allocated when it is first touched.
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
        self._region = f"snzi_obj{object_id}"
        #: node -> surplus held there (absent means 0).
        self._surplus: Dict[int, int] = {}

    def _node_address(self, node: int) -> int:
        # Nodes are padded to a cache line each to avoid false sharing, as the
        # SNZI paper recommends; this is part of SNZI's space overhead.
        return self.addresses.element(self._region, node, self.node_bytes)

    def _leaf_of_thread(self, thread_id: int) -> int:
        return (self.n_nodes - self.n_leaves) + (thread_id % self.n_leaves)

    @staticmethod
    def _parent(node: int) -> int:
        return (node - 1) // 2

    def arrive(self, builder: ColumnBuilder, thread_id: int, think: int = 0) -> None:
        """Append an increment (reference acquisition).

        ``think`` instructions precede the first node update.  The update
        propagates to the parent when a node's surplus goes 0 -> 1.
        """
        self._update_path(builder, thread_id, 1, think, propagate_at=1)

    def depart(self, builder: ColumnBuilder, thread_id: int, think: int = 0) -> None:
        """Append a decrement (reference release).

        ``think`` instructions precede the first node update.  The update
        propagates to the parent when a node's surplus goes 1 -> 0.
        """
        self._update_path(builder, thread_id, -1, think, propagate_at=0)

    def _update_path(
        self, builder: ColumnBuilder, thread_id: int, delta: int, think: int, propagate_at: int
    ) -> None:
        node = self._leaf_of_thread(thread_id)
        think += _NODE_THINK
        while True:
            builder.append(_NODE_ADD_CODE, self._node_address(node), delta, think)
            think = _NODE_THINK
            surplus = self._surplus.get(node, 0) + delta
            self._surplus[node] = surplus
            if surplus != propagate_at or node == 0:
                break
            node = self._parent(node)

    def query(self, builder: ColumnBuilder, _thread_id: int) -> None:
        """Append a non-zero check (read of the root)."""
        builder.append(_ROOT_LOAD_CODE, self._node_address(0), 0, 2)

    @property
    def footprint_bytes(self) -> int:
        """Space overhead of the tree for this object."""
        return self.n_nodes * self.node_bytes
