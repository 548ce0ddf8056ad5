"""Structured-grid particle simulation workload (``fluidanimate``).

The paper uses PARSEC's fluidanimate, modified so that updates to shared grid
cells use atomic operations instead of locks.  The coherence-relevant pattern
is a regular iterative algorithm on a spatial grid: each thread owns a
contiguous block of cells and, per time step, accumulates force/density
contributions into its own cells plus the boundary cells of neighbouring
threads (the ghost-cell pattern of Sec. 4.1).  Only a small fraction of cells
are shared, and each shared cell receives only a few updates from neighbours
per phase, so COUP's benefit is modest (the paper reports 4% at 128 cores).

The reproduction models a 2D grid partitioned into horizontal slabs; interior
cell updates are thread-private, boundary-row updates are shared with the
adjacent thread, and a read phase at the end of each step consumes all cells.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.commutative import CommutativeOp
from repro.sim.columnar import ACCESS_DTYPE, ColumnarTrace, encode_value, make_columns
from repro.workloads.base import UpdateStyle, Workload


class FluidanimateWorkload(Workload):
    """Regular grid computation with shared boundary (ghost) cells."""

    name = "fluidanimate"
    comm_op_label = "32b FP add"

    THINK_PER_CELL = 20
    THINK_PER_NEIGHBOUR = 6

    def __init__(
        self,
        grid_x: int = 64,
        grid_y: int = 64,
        *,
        n_steps: int = 2,
        updates_per_boundary_cell: int = 2,
        seed: int = 42,
        update_style: UpdateStyle = UpdateStyle.COMMUTATIVE,
    ) -> None:
        super().__init__(seed=seed, update_style=update_style)
        if grid_x <= 0 or grid_y <= 0 or n_steps <= 0:
            raise ValueError("grid dimensions and n_steps must be positive")
        self.grid_x = grid_x
        self.grid_y = grid_y
        self.n_steps = n_steps
        self.updates_per_boundary_cell = updates_per_boundary_cell
        self.op = CommutativeOp.ADD_F32

    def _cell_address(self, x: int, y: int) -> int:
        return self.addresses.element("fluid_cells", y * self.grid_x + x, 4)

    def _build_columnar(self, n_cores: int) -> ColumnarTrace:
        """Per step, an update phase and a read phase over each core's slab.

        Interior-cell updates are contiguous address ranges, boundary-row
        updates (``updates_per_boundary_cell`` per cell of each neighbouring
        thread's edge row) are ``np.repeat`` of one row's addresses, and the
        read phase re-walks the interior range — all assembled per
        (step, core) segment and concatenated in program order.
        """
        rows = self.split_work(self.grid_y, n_cores)
        cell_base = self.addresses.region("fluid_cells")
        update_code = self._update_code(1.0)
        interior_delta = encode_value(1.0)[1]
        boundary_delta = encode_value(0.5)[1]
        load_code = self._load_code(4)
        grid_x = self.grid_x
        segments: List[List[np.ndarray]] = [[] for _ in range(n_cores)]
        lengths = [0] * n_cores
        phase_boundaries: List[List[int]] = []

        def row_addresses(row: int) -> np.ndarray:
            start = cell_base + row * grid_x * 4
            return np.arange(start, start + grid_x * 4, 4, dtype=np.uint64)

        for _step in range(self.n_steps):
            for core_id in range(n_cores):
                own_rows = rows[core_id]
                if len(own_rows) == 0:
                    continue
                interior_start = cell_base + own_rows.start * grid_x * 4
                interior = np.arange(
                    interior_start,
                    interior_start + len(own_rows) * grid_x * 4,
                    4,
                    dtype=np.uint64,
                )
                segments[core_id].append(
                    make_columns(update_code, interior, interior_delta, self.THINK_PER_CELL)
                )
                lengths[core_id] += len(interior)
                for neighbour_row, owner in (
                    (own_rows.start - 1, core_id - 1),
                    (own_rows.stop, core_id + 1),
                ):
                    if not 0 <= owner < n_cores or not 0 <= neighbour_row < self.grid_y:
                        continue
                    addresses = np.repeat(
                        row_addresses(neighbour_row), self.updates_per_boundary_cell
                    )
                    segments[core_id].append(
                        make_columns(
                            update_code, addresses, boundary_delta, self.THINK_PER_NEIGHBOUR
                        )
                    )
                    lengths[core_id] += len(addresses)
            phase_boundaries.append(list(lengths))

            for core_id in range(n_cores):
                own_rows = rows[core_id]
                if len(own_rows) == 0:
                    continue
                interior_start = cell_base + own_rows.start * grid_x * 4
                interior = np.arange(
                    interior_start,
                    interior_start + len(own_rows) * grid_x * 4,
                    4,
                    dtype=np.uint64,
                )
                segments[core_id].append(make_columns(load_code, interior, 0, 4))
                lengths[core_id] += len(interior)
            phase_boundaries.append(list(lengths))

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
                "grid_x": self.grid_x,
                "grid_y": self.grid_y,
                "n_steps": self.n_steps,
                "variant": self.update_style.value,
            },
            phase_boundaries=phase_boundaries,
        )

    def reference_result(self) -> Optional[Dict[int, object]]:
        """Expected cell values for a single-step, single-core-agnostic run.

        Every cell receives ``n_steps`` interior contributions of 1.0; boundary
        rows additionally receive ``updates_per_boundary_cell`` contributions
        of 0.5 from each adjacent thread.  Because the boundary structure
        depends on the core count, the reference covers only the
        interior-contribution part and is used with ``n_cores=1`` in tests
        (where no cell is shared).
        """
        values: Dict[int, float] = {}
        for y in range(self.grid_y):
            for x in range(self.grid_x):
                values[self._cell_address(x, y)] = float(self.n_steps)
        return values
