"""PageRank workload (``pgrank``).

The paper's ``pgrank`` benchmark is a shared-memory PageRank over a large
irregular graph (Wikipedia 2007), using 64-bit integer (fixed-point) additions
to accumulate rank contributions.  In the push-style formulation each thread
owns a contiguous range of vertices and, for every owned vertex, adds its
scaled rank to each out-neighbour's accumulator; high in-degree vertices are
therefore updated by many threads, and the accumulator array goes through long
update-only phases separated by a read phase at the end of each iteration —
exactly the pattern Sec. 4.1 identifies as COUP-friendly for irregular
iterative algorithms.

The reproduction uses a synthetic power-law graph (preferential-attachment
style target selection) so the in-degree skew, and therefore the contention
profile, matches real web graphs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.commutative import CommutativeOp
from repro.sim.columnar import ACCESS_DTYPE, VK_NONE, ColumnarTrace, code_for
from repro.sim.access import AccessType
from repro.workloads.base import UpdateStyle, Workload
from repro.workloads.spmv import interleave_blocks


class PageRankWorkload(Workload):
    """Push-style PageRank with fixed-point (64-bit integer) accumulation."""

    name = "pgrank"
    comm_op_label = "64b int add"

    #: Instructions per edge outside the accumulator update.
    THINK_PER_EDGE = 6
    #: Instructions per vertex in the read/normalise phase.
    THINK_PER_VERTEX = 10

    def __init__(
        self,
        n_vertices: int = 4096,
        avg_degree: int = 8,
        *,
        n_iterations: int = 2,
        power_law_exponent: float = 1.0,
        seed: int = 42,
        update_style: UpdateStyle = UpdateStyle.COMMUTATIVE,
    ) -> None:
        super().__init__(seed=seed, update_style=update_style)
        if n_vertices <= 0 or avg_degree <= 0 or n_iterations <= 0:
            raise ValueError("graph parameters must be positive")
        self.n_vertices = n_vertices
        self.avg_degree = avg_degree
        self.n_iterations = n_iterations
        self.power_law_exponent = power_law_exponent
        self.op = CommutativeOp.ADD_I64

    # -- graph construction ----------------------------------------------------------

    def _edges(self) -> List[np.ndarray]:
        """Out-neighbour lists with power-law-skewed in-degrees."""
        rng = self._rng(0)
        # Target sampling weights: vertex v is chosen with probability
        # proportional to (v + 1) ** -exponent, then targets are shuffled by a
        # fixed permutation so hot vertices are spread across the ID space
        # (and therefore across owning cores).
        weights = (np.arange(self.n_vertices) + 1.0) ** (-self.power_law_exponent)
        weights /= weights.sum()
        permutation = rng.permutation(self.n_vertices)
        # Weighted sampling with the cdf hoisted out of the loop.  This is
        # exactly what ``rng.choice(n, size=degree, p=weights)`` does per
        # call — cumsum, normalize, searchsorted over ``degree`` uniform
        # draws — minus recomputing the O(n) cdf for every vertex, so the
        # draw stream (and therefore every generated trace) is unchanged.
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        adjacency: List[np.ndarray] = []
        for _vertex in range(self.n_vertices):
            degree = max(1, int(rng.poisson(self.avg_degree)))
            targets = cdf.searchsorted(rng.random(degree), side="right")
            adjacency.append(permutation[targets])
        return adjacency

    def _rank_address(self, vertex: int, generation: int) -> int:
        name = f"pgrank_rank_{generation % 2}"
        return self.addresses.element(name, int(vertex), 8)

    def _edge_address(self, edge_index: int) -> int:
        return self.addresses.element("pgrank_edges", int(edge_index), 8)

    # -- trace generation --------------------------------------------------------------

    def _build_columnar(self, n_cores: int) -> ColumnarTrace:
        """Per iteration, a scatter phase and a gather phase.

        In the scatter phase each core loads each owned vertex's rank, then
        per out-edge an edge load and an update of the target's
        accumulator; in the gather phase it loads and stores each owned
        vertex's new rank.  The scatter phase reuses the ``[head, (pair) * degree]`` layout of
        :func:`repro.workloads.spmv.interleave_blocks`; the gather phase is
        an even/odd load/store interleave.  The global edge counter becomes
        per-core aranges offset by the partition's cumulative degree and the
        iteration's edge total.
        """
        adjacency = self._edges()
        partitions = self.split_work(self.n_vertices, n_cores)
        degrees = np.fromiter(
            (len(targets) for targets in adjacency), dtype=np.int64, count=self.n_vertices
        )
        edges_before = np.zeros(self.n_vertices + 1, dtype=np.int64)
        np.cumsum(degrees, out=edges_before[1:])
        total_edges = int(edges_before[-1])

        load_code = self._load_code(8)
        store_code = code_for(AccessType.STORE, None, 8, VK_NONE)
        update_code = self._update_code(1)
        rank_bases = [None, None]

        def rank_base(generation: int) -> int:
            # Mirrors _rank_address: regions allocated on first use, in
            # program order.
            if rank_bases[generation] is None:
                rank_bases[generation] = self.addresses.region(
                    f"pgrank_rank_{generation}"
                )
            return rank_bases[generation]

        edge_base = None
        segments: List[List[np.ndarray]] = [[] for _ in range(n_cores)]
        lengths = [0] * n_cores
        phase_boundaries: List[List[int]] = []

        for iteration in range(self.n_iterations):
            read_gen = iteration % 2
            write_gen = (iteration + 1) % 2
            read_base = rank_base(read_gen)
            if edge_base is None:
                edge_base = self.addresses.region("pgrank_edges")
            write_base = rank_base(write_gen)
            iteration_edge_base = iteration * total_edges
            for core_id in range(n_cores):
                part = partitions[core_id]
                counts = degrees[part.start : part.stop]
                total, heads, pair_first = interleave_blocks(len(part), counts)
                array = np.empty(total, dtype=ACCESS_DTYPE)
                vertices = np.arange(part.start, part.stop, dtype=np.uint64)
                array["type_code"][heads] = load_code
                array["address"][heads] = read_base + vertices * 8
                array["value_delta"][heads] = 0
                array["compute_gap"][heads] = self.THINK_PER_VERTEX
                core_edges = int(counts.sum())
                edge_index = (
                    iteration_edge_base
                    + edges_before[part.start]
                    + np.arange(core_edges, dtype=np.uint64)
                )
                array["type_code"][pair_first] = load_code
                array["address"][pair_first] = edge_base + edge_index * 8
                array["value_delta"][pair_first] = 0
                array["compute_gap"][pair_first] = self.THINK_PER_EDGE
                if core_edges:
                    targets = np.concatenate(
                        adjacency[part.start : part.stop]
                    ).astype(np.uint64)
                else:
                    targets = np.empty(0, dtype=np.uint64)
                array["type_code"][pair_first + 1] = update_code
                array["address"][pair_first + 1] = write_base + targets * 8
                array["value_delta"][pair_first + 1] = 1
                array["compute_gap"][pair_first + 1] = 1
                array["phase"] = 0
                segments[core_id].append(array)
                lengths[core_id] += total
            phase_boundaries.append(list(lengths))

            for core_id in range(n_cores):
                part = partitions[core_id]
                array = np.empty(2 * len(part), dtype=ACCESS_DTYPE)
                addresses = write_base + np.arange(part.start, part.stop, dtype=np.uint64) * 8
                array["type_code"][0::2] = load_code
                array["type_code"][1::2] = store_code
                array["address"][0::2] = addresses
                array["address"][1::2] = addresses
                array["value_delta"] = 0
                array["compute_gap"][0::2] = self.THINK_PER_VERTEX
                array["compute_gap"][1::2] = 2
                array["phase"] = 0
                segments[core_id].append(array)
                lengths[core_id] += 2 * len(part)
            phase_boundaries.append(list(lengths))

        columns = [np.concatenate(core_segments) for core_segments in segments]
        return ColumnarTrace(
            name=self.name,
            columns=columns,
            params={
                "n_vertices": self.n_vertices,
                "avg_degree": self.avg_degree,
                "n_iterations": self.n_iterations,
                "variant": self.update_style.value,
            },
            phase_boundaries=phase_boundaries,
        )

    # -- functional reference --------------------------------------------------------------

    def reference_result(self) -> Optional[Dict[int, object]]:
        """Expected accumulator values after the first scatter phase.

        Only the first iteration's scatter target array is easily predictable
        (each edge contributes exactly 1 before the gather phase rewrites the
        values), so the reference covers generation-1 accumulators of a
        single-iteration configuration; tests use ``n_iterations=1``.
        """
        if self.n_iterations != 1:
            return None
        adjacency = self._edges()
        in_counts: Dict[int, int] = {}
        for targets in adjacency:
            for target in targets:
                in_counts[int(target)] = in_counts.get(int(target), 0) + 1
        return {
            self._rank_address(vertex, 1): count for vertex, count in in_counts.items()
        }
