"""Every workload's columnar builder against a frozen object-form one.

Each workload builds its trace once, as packed columns
(``Workload._build_columnar``).  The object-form builders they replaced are
kept below, verbatim, as the reference: one :class:`MemoryAccess` per
record, packed afterwards.  So are the object helpers those builders used:
``Workload.make_update`` and ``_update_shape``, the immediate-refcount
``_increment``/``_decrement_and_read``, SNZI's ``arrive``/``depart``/
``query`` and Refcache's ``update``/``flush``.

Each frozen builder lives on a subclass of the live workload
(:func:`frozen_twin` copies a fresh instance's parameters onto it), so it
draws from the same input generators (graphs, matrices, bin indices) and
RNG streams.  Over every workload, update style and core count of the grid,
the two must agree exactly: every column array-equal, the same ``name``,
``params`` and ``phase_boundaries``, and the same lazy region-allocation
order in the workload's :class:`AddressMap`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Set

import numpy as np
import pytest

from test_columnar_roundtrip import CASES

from repro.core.commutative import CommutativeOp
from repro.sim.access import AccessType, MemoryAccess, Trace, WorkloadTrace
from repro.sim.columnar import ColumnarTrace
from repro.software.refcache import RefcacheConfig
from repro.workloads.base import AddressMap, UpdateStyle
from repro.workloads.bfs import BfsWorkload
from repro.workloads.fluidanimate import FluidanimateWorkload
from repro.workloads.histogram import HistogramWorkload
from repro.workloads.pagerank import PageRankWorkload
from repro.workloads.refcount import (
    CountMode,
    DelayedRefcountWorkload,
    ImmediateRefcountWorkload,
    RefcountScheme,
)
from repro.workloads.spmv import SpmvWorkload
from repro.workloads.synthetic import (
    FalseSharingWorkload,
    InterleavedReadUpdateWorkload,
    MixedOpWorkload,
    MultiCounterWorkload,
    ReadOnlyWorkload,
    ScalarReductionWorkload,
    SharedCounterWorkload,
)

# -- frozen software baselines ---------------------------------------------------


@dataclass
class SnziNodeState:
    """Surplus held at one SNZI tree node for one shared object."""

    surplus: int = 0


class ReferenceSnziTree:
    """The object-form ``SnziTree``, frozen."""

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


class ReferenceRefcacheThreadCache:
    """The object-form ``RefcacheThreadCache``, frozen."""

    def __init__(
        self,
        addresses: AddressMap,
        thread_id: int,
        config: RefcacheConfig = RefcacheConfig(),
    ) -> None:
        self.addresses = addresses
        self.thread_id = thread_id
        self.config = config
        #: counter id -> accumulated delta (functional bookkeeping).
        self.deltas: Dict[int, int] = {}

    def _slot_address(self, counter_id: int) -> int:
        slot = hash(counter_id) % self.config.n_slots
        return self.addresses.element(
            f"refcache_t{self.thread_id}", slot, self.config.slot_bytes
        )

    def update(self, counter_id: int, delta: int) -> Trace:
        """Accesses performed by one increment/decrement during an epoch.

        A hash-table probe (load of the slot), the delta update (store), plus
        the hashing and tag-check instructions as think time.
        """
        self.deltas[counter_id] = self.deltas.get(counter_id, 0) + delta
        slot = self._slot_address(counter_id)
        return [
            MemoryAccess.load(slot, think=6),
            MemoryAccess.store(slot, None, think=2),
        ]

    def flush(self, global_counter_address) -> Trace:
        """Accesses performed by the end-of-epoch flush.

        For every dirty slot, the thread reads the slot and applies the delta
        to the global counter with an atomic add; slots are then cleared.
        ``global_counter_address`` maps a counter id to its address.
        """
        trace: Trace = []
        for counter_id, delta in sorted(self.deltas.items()):
            trace.append(MemoryAccess.load(self._slot_address(counter_id), think=4))
            trace.append(
                MemoryAccess.atomic(
                    global_counter_address(counter_id), CommutativeOp.ADD_I64, delta, think=2
                )
            )
        self.deltas.clear()
        return trace


# -- frozen Workload helpers -----------------------------------------------------


class ObjectBuilder:
    """The object-form half of ``Workload``, frozen.

    Mixed in ahead of a live workload class, so :meth:`generate` runs the
    subclass's frozen ``_build`` instead of the live columnar builder.
    """

    def make_update(
        self,
        address: int,
        op,
        value,
        *,
        think: int = 0,
    ) -> MemoryAccess:
        """Build an update access according to the workload's update style."""
        if self.update_style is UpdateStyle.ATOMIC:
            return MemoryAccess.atomic(address, op, value, think=think)
        if self.update_style is UpdateStyle.COMMUTATIVE:
            return MemoryAccess.commutative(address, op, value, think=think)
        if self.update_style is UpdateStyle.REMOTE:
            return MemoryAccess.remote_update(address, op, value, think=think)
        return MemoryAccess.store(address, value, think=think)

    def _update_shape(self, op=None):
        """(access_type, op, size_bytes) triple :meth:`make_update` would use."""
        op = op if op is not None else getattr(self, "op", None)
        if self.update_style is UpdateStyle.ATOMIC:
            return AccessType.ATOMIC_RMW, op, op.word_bytes
        if self.update_style is UpdateStyle.COMMUTATIVE:
            return AccessType.COMMUTATIVE_UPDATE, op, op.word_bytes
        if self.update_style is UpdateStyle.REMOTE:
            return AccessType.REMOTE_UPDATE, op, op.word_bytes
        return AccessType.STORE, None, 8

    def generate(self, n_cores: int) -> WorkloadTrace:
        """Generate the workload trace for ``n_cores`` cores."""
        if n_cores <= 0:
            raise ValueError("n_cores must be positive")
        trace = self._build(n_cores)
        trace.params.setdefault("update_style", self.update_style.value)
        trace.params.setdefault("seed", self.seed)
        trace.validate()
        return trace


# -- frozen synthetic builders ---------------------------------------------------


class ReferenceSharedCounter(ObjectBuilder, SharedCounterWorkload):
    def _build(self, n_cores: int) -> WorkloadTrace:
        per_core: List[Trace] = []
        for _core in range(n_cores):
            trace = [
                self.make_update(self.counter_address, self.op, 1, think=self.think)
                for _ in range(self.updates_per_core)
            ]
            per_core.append(trace)
        boundaries = None
        if self.read_at_end:
            boundaries = [[len(trace) for trace in per_core]]
            per_core[0].append(MemoryAccess.load(self.counter_address, think=2))
            # The read happens in a second phase so it observes all updates.
            boundaries[0][0] -= 0
        workload = WorkloadTrace(
            name=self.name,
            per_core=per_core,
            params={"updates_per_core": self.updates_per_core},
            phase_boundaries=boundaries,
        )
        return workload


class ReferenceMultiCounter(ObjectBuilder, MultiCounterWorkload):
    def _build(self, n_cores: int) -> WorkloadTrace:
        per_core: List[Trace] = []
        for core_id in range(n_cores):
            rng = self._rng(core_id)
            trace: Trace = []
            for _ in range(self.updates_per_core):
                if self.hot_fraction and rng.random() < self.hot_fraction:
                    index = 0
                else:
                    index = int(rng.integers(0, self.n_counters))
                trace.append(
                    self.make_update(self.counter_address(index), self.op, 1, think=self.think)
                )
            per_core.append(trace)
        return WorkloadTrace(
            name=self.name,
            per_core=per_core,
            params={
                "n_counters": self.n_counters,
                "updates_per_core": self.updates_per_core,
                "hot_fraction": self.hot_fraction,
            },
        )


class ReferenceFalseSharing(ObjectBuilder, FalseSharingWorkload):
    def _build(self, n_cores: int) -> WorkloadTrace:
        per_core: List[Trace] = []
        for core_id in range(n_cores):
            trace = [
                self.make_update(self.word_address(core_id), self.op, 1, think=self.think)
                for _ in range(self.updates_per_core)
            ]
            per_core.append(trace)
        return WorkloadTrace(
            name=self.name,
            per_core=per_core,
            params={"updates_per_core": self.updates_per_core},
        )


class ReferenceScalarReduction(ObjectBuilder, ScalarReductionWorkload):
    def _build(self, n_cores: int) -> WorkloadTrace:
        per_core: List[Trace] = []
        for core_id in range(n_cores):
            trace: Trace = [
                MemoryAccess.load(self._input_address(core_id, i), think=4)
                for i in range(self.items_per_core)
            ]
            trace.append(self.make_update(self.scalar_address, self.op, self.items_per_core, think=2))
            per_core.append(trace)
        return WorkloadTrace(
            name=self.name,
            per_core=per_core,
            params={"items_per_core": self.items_per_core},
        )


class ReferenceReadOnly(ObjectBuilder, ReadOnlyWorkload):
    def _build(self, n_cores: int) -> WorkloadTrace:
        per_core: List[Trace] = []
        for core_id in range(n_cores):
            rng = self._rng(core_id)
            trace = [
                MemoryAccess.load(
                    self.element_address(int(rng.integers(0, self.n_elements))), think=3
                )
                for _ in range(self.reads_per_core)
            ]
            per_core.append(trace)
        return WorkloadTrace(
            name=self.name,
            per_core=per_core,
            params={"n_elements": self.n_elements, "reads_per_core": self.reads_per_core},
        )


class ReferenceInterleaved(ObjectBuilder, InterleavedReadUpdateWorkload):
    def _build(self, n_cores: int) -> WorkloadTrace:
        per_core: List[Trace] = []
        for core_id in range(n_cores):
            rng = self._rng(core_id)
            trace: Trace = []
            for _round in range(self.rounds):
                index = int(rng.integers(0, self.n_elements))
                address = self.element_address(index)
                for _ in range(self.updates_per_read):
                    trace.append(self.make_update(address, self.op, 1, think=self.think))
                trace.append(MemoryAccess.load(address, think=self.think))
            per_core.append(trace)
        return WorkloadTrace(
            name=self.name,
            per_core=per_core,
            params={
                "n_elements": self.n_elements,
                "updates_per_read": self.updates_per_read,
                "rounds": self.rounds,
            },
        )


class ReferenceMixedOp(ObjectBuilder, MixedOpWorkload):
    def _build(self, n_cores: int) -> WorkloadTrace:
        per_core: List[Trace] = []
        for _core in range(n_cores):
            trace: Trace = []
            for i in range(self.updates_per_core):
                use_add = (i // self.switch_every) % 2 == 0
                if use_add:
                    trace.append(
                        MemoryAccess.commutative(self.add_address, CommutativeOp.ADD_I64, 1, think=4)
                    )
                else:
                    trace.append(
                        MemoryAccess.commutative(
                            self.or_address, CommutativeOp.OR_64, 1 << (i % 64), think=4
                        )
                    )
            per_core.append(trace)
        return WorkloadTrace(
            name=self.name,
            per_core=per_core,
            params={
                "updates_per_core": self.updates_per_core,
                "switch_every": self.switch_every,
            },
        )


# -- frozen paper-benchmark builders ---------------------------------------------


class ReferenceHistogram(ObjectBuilder, HistogramWorkload):
    def _build(self, n_cores: int) -> WorkloadTrace:
        bins = self._input_bins()
        partitions = self.split_work(self.n_items, n_cores)
        # Hoisted out of the per-item loop: region bases (touched in the same
        # first-use order as the loop would) and the update-access shape that
        # ``make_update`` would resolve per item.
        input_base = self.addresses.region("hist_input")
        bin_base = self.addresses.region("hist_bins")
        load_t = AccessType.LOAD
        update_t, update_op, update_size = self._update_shape()
        think_per_item = self.THINK_PER_ITEM
        bin_bytes = self.bin_bytes
        per_core: List[Trace] = []
        for core_id in range(n_cores):
            trace: Trace = []
            append = trace.append
            for item in partitions[core_id]:
                append(
                    MemoryAccess(
                        load_t,
                        input_base + item * 4,
                        think_instructions=think_per_item,
                        size_bytes=4,
                    )
                )
                append(
                    MemoryAccess(
                        update_t,
                        bin_base + int(bins[item]) * bin_bytes,
                        op=update_op,
                        value=1,
                        think_instructions=2,
                        size_bytes=update_size,
                    )
                )
            per_core.append(trace)
        return WorkloadTrace(
            name=self.name,
            per_core=per_core,
            params={
                "n_bins": self.n_bins,
                "n_items": self.n_items,
                "variant": self.update_style.value,
            },
        )


class ReferenceSpmv(ObjectBuilder, SpmvWorkload):
    def _build(self, n_cores: int) -> WorkloadTrace:
        columns = self._column_rows()
        partitions = self.split_work(self.n_cols, n_cores)
        per_core: List[Trace] = []
        nnz_counter = 0
        for core_id in range(n_cores):
            trace: Trace = []
            for col in partitions[core_id]:
                # x[col] is read once per column and stays in registers.
                trace.append(MemoryAccess.load(self._x_address(col), think=4))
                for row in columns[col]:
                    trace.append(
                        MemoryAccess.load(
                            self._value_address(nnz_counter), think=self.THINK_PER_NNZ
                        )
                    )
                    nnz_counter += 1
                    trace.append(
                        self.make_update(self._y_address(row), self.op, 1.0, think=1)
                    )
            per_core.append(trace)
        return WorkloadTrace(
            name=self.name,
            per_core=per_core,
            params={
                "n_rows": self.n_rows,
                "n_cols": self.n_cols,
                "nnz_per_col": self.nnz_per_col,
                "variant": self.update_style.value,
            },
        )


class ReferencePageRank(ObjectBuilder, PageRankWorkload):
    def _build(self, n_cores: int) -> WorkloadTrace:
        adjacency = self._edges()
        partitions = self.split_work(self.n_vertices, n_cores)
        per_core: List[Trace] = [[] for _ in range(n_cores)]
        phase_boundaries: List[List[int]] = []

        edge_counter = 0
        for iteration in range(self.n_iterations):
            read_gen = iteration % 2
            write_gen = (iteration + 1) % 2
            # Scatter phase: push contributions to out-neighbours.
            for core_id in range(n_cores):
                trace = per_core[core_id]
                for vertex in partitions[core_id]:
                    trace.append(
                        MemoryAccess.load(
                            self._rank_address(vertex, read_gen), think=self.THINK_PER_VERTEX
                        )
                    )
                    for target in adjacency[vertex]:
                        trace.append(
                            MemoryAccess.load(
                                self._edge_address(edge_counter), think=self.THINK_PER_EDGE
                            )
                        )
                        edge_counter += 1
                        trace.append(
                            self.make_update(
                                self._rank_address(int(target), write_gen), self.op, 1, think=1
                            )
                        )
            phase_boundaries.append([len(trace) for trace in per_core])
            # Gather phase: each core reads its own vertices' new ranks
            # (applying damping and writing the value it will push next
            # iteration); reads of just-updated accumulators force reductions.
            for core_id in range(n_cores):
                trace = per_core[core_id]
                for vertex in partitions[core_id]:
                    trace.append(
                        MemoryAccess.load(
                            self._rank_address(vertex, write_gen), think=self.THINK_PER_VERTEX
                        )
                    )
                    trace.append(
                        MemoryAccess.store(self._rank_address(vertex, write_gen), None, think=2)
                    )
            phase_boundaries.append([len(trace) for trace in per_core])

        return WorkloadTrace(
            name=self.name,
            per_core=per_core,
            params={
                "n_vertices": self.n_vertices,
                "avg_degree": self.avg_degree,
                "n_iterations": self.n_iterations,
                "variant": self.update_style.value,
            },
            phase_boundaries=phase_boundaries,
        )


class ReferenceBfs(ObjectBuilder, BfsWorkload):
    def _build(self, n_cores: int) -> WorkloadTrace:
        adjacency = self._adjacency()
        per_core: List[Trace] = [[] for _ in range(n_cores)]
        phase_boundaries: List[List[int]] = []

        visited: Set[int] = {0}
        frontier: List[int] = [0]
        edge_counter = 0

        for _level in range(self.max_levels):
            if not frontier:
                break
            next_frontier: List[int] = []
            # The frontier is partitioned among cores round-robin, mirroring
            # work-stealing BFS implementations.
            for position, vertex in enumerate(frontier):
                core_id = position % n_cores
                trace = per_core[core_id]
                trace.append(
                    MemoryAccess.load(self._edge_address(edge_counter), think=self.THINK_PER_VERTEX)
                )
                edge_counter += 1
                for neighbour in adjacency[vertex]:
                    neighbour = int(neighbour)
                    word_address = self._bitmap_word_address(neighbour)
                    # Check the visited bit first (read of the bitmap word).
                    trace.append(MemoryAccess.load(word_address, think=self.THINK_PER_EDGE))
                    if neighbour not in visited:
                        visited.add(neighbour)
                        next_frontier.append(neighbour)
                        trace.append(
                            self.make_update(
                                word_address, self.op, self._bit_mask(neighbour), think=1
                            )
                        )
            phase_boundaries.append([len(trace) for trace in per_core])
            frontier = next_frontier

        return WorkloadTrace(
            name=self.name,
            per_core=per_core,
            params={
                "n_vertices": self.n_vertices,
                "avg_degree": self.avg_degree,
                "max_levels": self.max_levels,
                "variant": self.update_style.value,
            },
            phase_boundaries=phase_boundaries,
        )


class ReferenceFluidanimate(ObjectBuilder, FluidanimateWorkload):
    def _build(self, n_cores: int) -> WorkloadTrace:
        rows = self.split_work(self.grid_y, n_cores)
        per_core: List[Trace] = [[] for _ in range(n_cores)]
        phase_boundaries: List[List[int]] = []

        for _step in range(self.n_steps):
            # Update phase: accumulate contributions into own and boundary cells.
            for core_id in range(n_cores):
                trace = per_core[core_id]
                own_rows = rows[core_id]
                if len(own_rows) == 0:
                    continue
                for y in own_rows:
                    for x in range(self.grid_x):
                        # Interior contribution to the thread's own cell.
                        trace.append(
                            self.make_update(
                                self._cell_address(x, y), self.op, 1.0, think=self.THINK_PER_CELL
                            )
                        )
                # Contributions to the neighbouring threads' boundary rows.
                for neighbour_row, owner in (
                    (own_rows.start - 1, core_id - 1),
                    (own_rows.stop, core_id + 1),
                ):
                    if not 0 <= owner < n_cores or not 0 <= neighbour_row < self.grid_y:
                        continue
                    for x in range(self.grid_x):
                        for _ in range(self.updates_per_boundary_cell):
                            trace.append(
                                self.make_update(
                                    self._cell_address(x, neighbour_row),
                                    self.op,
                                    0.5,
                                    think=self.THINK_PER_NEIGHBOUR,
                                )
                            )
            phase_boundaries.append([len(trace) for trace in per_core])

            # Read phase: every thread reads its own cells (integrating state).
            for core_id in range(n_cores):
                trace = per_core[core_id]
                for y in rows[core_id]:
                    for x in range(self.grid_x):
                        trace.append(
                            MemoryAccess.load(self._cell_address(x, y), think=4, size=4)
                        )
            phase_boundaries.append([len(trace) for trace in per_core])

        return WorkloadTrace(
            name=self.name,
            per_core=per_core,
            params={
                "grid_x": self.grid_x,
                "grid_y": self.grid_y,
                "n_steps": self.n_steps,
                "variant": self.update_style.value,
            },
            phase_boundaries=phase_boundaries,
        )


# -- frozen reference-counting builders ------------------------------------------


class ReferenceImmediateRefcount(ObjectBuilder, ImmediateRefcountWorkload):
    def _counter_address(self, counter: int) -> int:
        return self.addresses.element("refcount_counters", counter, self.counter_bytes)

    def _build(self, n_cores: int) -> WorkloadTrace:
        per_core: List[Trace] = []
        snzi_trees: Dict[int, ReferenceSnziTree] = {}
        if self.scheme is RefcountScheme.SNZI:
            snzi_trees = {
                counter: ReferenceSnziTree(self.addresses, counter, n_cores)
                for counter in range(self.n_counters)
            }

        for core_id in range(n_cores):
            rng = self._rng(1000 + core_id)
            held: Dict[int, int] = {}
            trace: Trace = []
            for _ in range(self.updates_per_thread):
                counter = int(rng.integers(0, self.n_counters))
                references = held.get(counter, 0)
                increment = self._choose_increment(rng, references)
                if increment:
                    held[counter] = references + 1
                    trace.extend(self._increment(core_id, counter, snzi_trees))
                else:
                    held[counter] = max(0, references - 1)
                    trace.extend(self._decrement_and_read(core_id, counter, snzi_trees))
            per_core.append(trace)

        return WorkloadTrace(
            name=f"{self.name}-{self.scheme.value}-{self.count_mode.value}",
            per_core=per_core,
            params={
                "n_counters": self.n_counters,
                "updates_per_thread": self.updates_per_thread,
                "scheme": self.scheme.value,
                "count_mode": self.count_mode.value,
            },
        )

    def _increment(
        self, core_id: int, counter: int, snzi_trees: Dict[int, ReferenceSnziTree]
    ) -> Trace:
        if self.scheme is RefcountScheme.SNZI:
            trace = snzi_trees[counter].arrive(core_id)
            trace[0].think_instructions += self.THINK_PER_OP
            return trace
        return [
            self.make_update(self._counter_address(counter), self.op, 1, think=self.THINK_PER_OP)
        ]

    def _decrement_and_read(
        self, core_id: int, counter: int, snzi_trees: Dict[int, ReferenceSnziTree]
    ) -> Trace:
        if self.scheme is RefcountScheme.SNZI:
            trace = snzi_trees[counter].depart(core_id)
            trace[0].think_instructions += self.THINK_PER_OP
            trace.extend(snzi_trees[counter].query(core_id))
            return trace
        address = self._counter_address(counter)
        return [
            self.make_update(address, self.op, -1, think=self.THINK_PER_OP),
            MemoryAccess.load(address, think=2),
        ]


class ReferenceDelayedRefcount(ObjectBuilder, DelayedRefcountWorkload):
    def _build(self, n_cores: int) -> WorkloadTrace:
        per_core: List[Trace] = [[] for _ in range(n_cores)]
        phase_boundaries: List[List[int]] = []
        caches = [
            ReferenceRefcacheThreadCache(self.addresses, core_id) for core_id in range(n_cores)
        ]
        #: Which counters each core marked as modified this epoch (COUP variant).
        for epoch in range(self.n_epochs):
            modified_per_core: List[set] = [set() for _ in range(n_cores)]
            for core_id in range(n_cores):
                rng = self._rng((epoch + 1) * 10_000 + core_id)
                trace = per_core[core_id]
                for _ in range(self.updates_per_epoch):
                    counter = int(rng.integers(0, self.n_counters))
                    delta = 1 if rng.random() < 0.5 else -1
                    if self.scheme is RefcountScheme.COUP:
                        trace.append(
                            MemoryAccess.commutative(
                                self._counter_address(counter), self.op, delta, think=self.THINK_PER_OP
                            )
                        )
                        trace.append(
                            MemoryAccess.commutative(
                                self._bitmap_address(counter),
                                CommutativeOp.OR_64,
                                1 << (counter % self.BITS_PER_WORD),
                                think=1,
                            )
                        )
                        modified_per_core[core_id].add(counter)
                    else:
                        trace.extend(caches[core_id].update(counter, delta))
            phase_boundaries.append([len(trace) for trace in per_core])

            # End of epoch: check for zero counters (COUP) or flush deltas
            # (Refcache), then a second barrier before the next epoch begins.
            for core_id in range(n_cores):
                trace = per_core[core_id]
                if self.scheme is RefcountScheme.COUP:
                    for counter in sorted(modified_per_core[core_id]):
                        trace.append(MemoryAccess.load(self._bitmap_address(counter), think=3))
                        trace.append(MemoryAccess.load(self._counter_address(counter), think=3))
                else:
                    trace.extend(caches[core_id].flush(self._counter_address))
            phase_boundaries.append([len(trace) for trace in per_core])

        return WorkloadTrace(
            name=f"{self.name}-{self.scheme.value}",
            per_core=per_core,
            params={
                "n_counters": self.n_counters,
                "updates_per_epoch": self.updates_per_epoch,
                "n_epochs": self.n_epochs,
                "scheme": self.scheme.value,
            },
            phase_boundaries=phase_boundaries,
        )


# -- the comparison --------------------------------------------------------------

#: Live workload class -> its frozen object-form twin.
REFERENCE_CLASSES = {
    frozen.__mro__[2]: frozen
    for frozen in (
        ReferenceSharedCounter,
        ReferenceMultiCounter,
        ReferenceFalseSharing,
        ReferenceScalarReduction,
        ReferenceReadOnly,
        ReferenceInterleaved,
        ReferenceMixedOp,
        ReferenceHistogram,
        ReferenceSpmv,
        ReferencePageRank,
        ReferenceBfs,
        ReferenceFluidanimate,
        ReferenceImmediateRefcount,
        ReferenceDelayedRefcount,
    )
}


def frozen_twin(workload):
    """A frozen-builder copy of a fresh (never generated) ``workload``."""
    twin = object.__new__(REFERENCE_CLASSES[type(workload)])
    twin.__dict__.update(copy.deepcopy(vars(workload)))
    return twin


#: A case beyond the round-trip grid, which has only low-count SNZI:
#: SNZI's high-count regime, where a leaf's surplus climbs past one, so most
#: arrivals and departures stop at the leaf.
EXTRA_CASES = {
    "refcount-snzi-high": lambda: ImmediateRefcountWorkload(
        n_counters=12,
        updates_per_thread=60,
        scheme=RefcountScheme.SNZI,
        count_mode=CountMode.HIGH,
    ),
}

#: The paper benchmarks at the sizes the golden-equivalence suite uses.
PAPER_FACTORIES = {
    "hist": lambda style: HistogramWorkload(n_bins=32, n_items=500, update_style=style),
    "spmv": lambda style: SpmvWorkload(n_rows=64, n_cols=64, nnz_per_col=4, update_style=style),
    "pgrank": lambda style: PageRankWorkload(
        n_vertices=72, avg_degree=4, n_iterations=2, update_style=style
    ),
    "bfs": lambda style: BfsWorkload(n_vertices=128, avg_degree=5, max_levels=3, update_style=style),
    "fluidanimate": lambda style: FluidanimateWorkload(
        grid_x=6, grid_y=16, n_steps=1, update_style=style
    ),
}

PAPER_STYLES = (UpdateStyle.ATOMIC, UpdateStyle.COMMUTATIVE, UpdateStyle.REMOTE)


def assert_columns_equal_frozen_builder(make, n_cores: int) -> None:
    reference_workload = frozen_twin(make())
    reference = ColumnarTrace.from_workload(reference_workload.generate(n_cores))
    workload = make()
    trace = workload.generate_columnar(n_cores)

    assert trace.name == reference.name
    assert trace.params == reference.params
    assert trace.phase_boundaries == reference.phase_boundaries
    assert len(trace.columns) == len(reference.columns) == n_cores
    for core_id, (column, expected) in enumerate(zip(trace.columns, reference.columns)):
        assert column.dtype == expected.dtype
        assert np.array_equal(column, expected), f"core {core_id} diverged"
    assert list(workload.addresses._regions.items()) == list(
        reference_workload.addresses._regions.items()
    )


GRID_CASES = {**CASES, **EXTRA_CASES}


@pytest.mark.parametrize("case", sorted(GRID_CASES))
@pytest.mark.parametrize("n_cores", [1, 3, 6, 32])
def test_columns_equal_frozen_object_builder(case, n_cores):
    assert_columns_equal_frozen_builder(GRID_CASES[case], n_cores)


@pytest.mark.parametrize("n_cores", [2, 8])
@pytest.mark.parametrize("style", PAPER_STYLES, ids=lambda style: style.value)
@pytest.mark.parametrize("name", sorted(PAPER_FACTORIES))
def test_paper_benchmarks_equal_frozen_object_builder(name, style, n_cores):
    assert_columns_equal_frozen_builder(lambda: PAPER_FACTORIES[name](style), n_cores)


def test_grid_reaches_every_frozen_builder():
    assert {type(make()) for make in GRID_CASES.values()} == set(REFERENCE_CLASSES)
