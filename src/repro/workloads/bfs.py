"""Breadth-first search workload (``bfs``).

High-performance BFS implementations keep the set of visited vertices in a
bitmap that fits in cache (Sec. 4.2).  During each level, threads scan their
share of the frontier and, for every neighbour, first *read* the neighbour's
bit to decide whether it needs visiting and then *set* it with an atomic OR
(or, in COUP, a commutative OR).  Reads and updates to the same bitmap words
are therefore finely interleaved, so lines constantly move between read-only
and update-only modes — the pattern where software privatization is
impractical but COUP still helps (the paper reports a 20% speedup at 128
cores).

The reproduction generates a synthetic small-world graph and emits the
bitmap access stream of a level-synchronous BFS; frontier queues are
thread-private and modelled as cheap think instructions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import numpy as np

from repro.core.commutative import CommutativeOp
from repro.sim.columnar import ACCESS_DTYPE, ColumnarTrace
from repro.workloads.base import UpdateStyle, Workload


class BfsWorkload(Workload):
    """Level-synchronous BFS with a shared visited bitmap."""

    name = "bfs"
    comm_op_label = "64b OR"

    THINK_PER_EDGE = 5
    THINK_PER_VERTEX = 8
    #: Bits per bitmap word (the paper uses 64-bit OR operations).
    BITS_PER_WORD = 64

    def __init__(
        self,
        n_vertices: int = 4096,
        avg_degree: int = 8,
        *,
        max_levels: int = 4,
        seed: int = 42,
        update_style: UpdateStyle = UpdateStyle.COMMUTATIVE,
    ) -> None:
        super().__init__(seed=seed, update_style=update_style)
        if n_vertices <= 0 or avg_degree <= 0 or max_levels <= 0:
            raise ValueError("graph parameters must be positive")
        self.n_vertices = n_vertices
        self.avg_degree = avg_degree
        self.max_levels = max_levels
        self.op = CommutativeOp.OR_64

    # -- graph construction -------------------------------------------------------

    def _adjacency(self) -> List[np.ndarray]:
        rng = self._rng(0)
        adjacency: List[np.ndarray] = []
        for vertex in range(self.n_vertices):
            degree = max(1, int(rng.poisson(self.avg_degree)))
            # Mix of local neighbours (cache-friendly) and random long links.
            local = (vertex + rng.integers(1, 16, size=max(1, degree // 2))) % self.n_vertices
            remote = rng.integers(0, self.n_vertices, size=degree - len(local))
            adjacency.append(np.unique(np.concatenate([local, remote])))
        return adjacency

    def _bitmap_word_address(self, vertex: int) -> int:
        word = vertex // self.BITS_PER_WORD
        return self.addresses.element("bfs_visited", word, 8)

    def _bit_mask(self, vertex: int) -> int:
        return 1 << (vertex % self.BITS_PER_WORD)

    def _edge_address(self, index: int) -> int:
        return self.addresses.element("bfs_edges", index, 8)

    # -- trace generation -----------------------------------------------------------

    def _build_columnar(self, n_cores: int) -> ColumnarTrace:
        """The bitmap access stream of a level-synchronous BFS.

        Per level, the frontier is partitioned among cores round-robin; each
        frontier vertex issues an edge load, then per neighbour a load of
        its visited-bitmap word, plus an OR of its bit if it is not yet
        visited.  Each level's access stream is assembled as one flat array in global
        (frontier-position) order, with the round-robin owner recorded per
        access; per-core columns are boolean selections from the stream,
        which preserves each core's append order exactly.  The visited-set
        semantics — the *first* in-level occurrence of a not-yet-visited
        neighbour gets the update — vectorize as ``np.unique``'s stable
        first-occurrence index plus a visited bitmap.
        """
        adjacency = self._adjacency()
        degrees = np.fromiter(
            (len(targets) for targets in adjacency), dtype=np.int64, count=self.n_vertices
        )
        edge_base = self.addresses.region("bfs_edges")
        visited_base = self.addresses.region("bfs_visited")
        load_code = self._load_code(8)
        update_code_int = self._update_code(1)
        update_code_uint = self._update_code(1 << 63)

        visited = np.zeros(self.n_vertices, dtype=bool)
        visited[0] = True
        frontier = np.array([0], dtype=np.int64)
        edge_counter = 0
        segments: List[List[np.ndarray]] = [[] for _ in range(n_cores)]
        lengths = [0] * n_cores
        phase_boundaries: List[List[int]] = []

        for _level in range(self.max_levels):
            if not len(frontier):
                break
            n_positions = len(frontier)
            positions = np.arange(n_positions, dtype=np.int64)
            owners = positions % n_cores
            counts = degrees[frontier]  # every vertex has >= 1 neighbour
            neighbours = np.concatenate([adjacency[v] for v in frontier])
            first_nb = np.zeros(n_positions, dtype=np.int64)
            if n_positions > 1:
                np.cumsum(counts[:-1], out=first_nb[1:])

            # First stable occurrence of each neighbour within this level's
            # stream, and not visited in an earlier level -> gets the update.
            first_mask = np.zeros(len(neighbours), dtype=bool)
            first_mask[np.unique(neighbours, return_index=True)[1]] = True
            new_mask = first_mask & ~visited[neighbours]

            nb_len = 1 + new_mask.astype(np.int64)  # load (+ update if new)
            new_per_position = np.add.reduceat(new_mask.astype(np.int64), first_nb)
            block_len = 1 + counts + new_per_position
            heads = np.zeros(n_positions, dtype=np.int64)
            if n_positions > 1:
                np.cumsum(block_len[:-1], out=heads[1:])
            slots_before = np.zeros(len(neighbours), dtype=np.int64)
            if len(neighbours) > 1:
                np.cumsum(nb_len[:-1], out=slots_before[1:])
            load_positions = (
                np.repeat(heads + 1, counts)
                + slots_before
                - np.repeat(slots_before[first_nb], counts)
            )
            update_positions = load_positions[new_mask] + 1

            total = int(block_len.sum())
            stream = np.empty(total, dtype=ACCESS_DTYPE)
            stream["value_delta"] = 0
            stream["phase"] = 0
            stream["type_code"][heads] = load_code
            stream["address"][heads] = (
                edge_base + (edge_counter + positions).astype(np.uint64) * 8
            )
            stream["compute_gap"][heads] = self.THINK_PER_VERTEX
            word_addresses = (
                visited_base
                + (neighbours // self.BITS_PER_WORD).astype(np.uint64) * 8
            )
            stream["type_code"][load_positions] = load_code
            stream["address"][load_positions] = word_addresses
            stream["compute_gap"][load_positions] = self.THINK_PER_EDGE
            bits = (neighbours[new_mask] % self.BITS_PER_WORD).astype(np.uint64)
            stream["type_code"][update_positions] = np.where(
                bits == 63, update_code_uint, update_code_int
            ).astype(np.uint8)
            stream["address"][update_positions] = word_addresses[new_mask]
            stream["value_delta"][update_positions] = np.left_shift(
                np.uint64(1), bits
            ).view(np.int64)
            stream["compute_gap"][update_positions] = 1

            owner_of_access = np.repeat(owners, block_len)
            for core_id in range(n_cores):
                column = stream[owner_of_access == core_id]
                segments[core_id].append(column)
                lengths[core_id] += len(column)
            phase_boundaries.append(list(lengths))

            frontier = neighbours[new_mask]
            visited[frontier] = True
            edge_counter += n_positions

        columns = [
            np.concatenate(core_segments)
            if core_segments
            else np.empty(0, dtype=ACCESS_DTYPE)
            for core_segments in segments
        ]
        return ColumnarTrace(
            name=self.name,
            columns=columns,
            params={
                "n_vertices": self.n_vertices,
                "avg_degree": self.avg_degree,
                "max_levels": self.max_levels,
                "variant": self.update_style.value,
            },
            phase_boundaries=phase_boundaries,
        )

    # -- functional reference -----------------------------------------------------------

    def reference_result(self) -> Optional[Dict[int, object]]:
        """Expected bitmap words after the traversal completes."""
        adjacency = self._adjacency()
        visited: Set[int] = {0}
        frontier = [0]
        for _level in range(self.max_levels):
            if not frontier:
                break
            next_frontier = []
            for vertex in frontier:
                for neighbour in adjacency[vertex]:
                    neighbour = int(neighbour)
                    if neighbour not in visited:
                        visited.add(neighbour)
                        next_frontier.append(neighbour)
            frontier = next_frontier
        words: Dict[int, int] = {}
        for vertex in visited:
            if vertex == 0:
                continue  # The root's bit is set before the traversal starts.
            address = self._bitmap_word_address(vertex)
            words[address] = words.get(address, 0) | self._bit_mask(vertex)
        return words
