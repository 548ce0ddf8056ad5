"""Sparse matrix-vector multiplication workload (``spmv``).

The paper's ``spmv`` kernel multiplies a sparse matrix in compressed sparse
column (CSC) format by a dense vector.  In CSC, threads own disjoint column
ranges, and each nonzero ``A[r, c]`` contributes ``A[r, c] * x[c]`` to
``y[r]`` — a *scattered* addition to the shared output vector, because many
columns touch the same rows.  The paper uses 64-bit floating-point additions
(Table 2).

The reproduction generates a synthetic banded + random sparse matrix with a
configurable rows/columns ratio and nonzeros per column; the structural
property that matters to the coherence protocol — many cores performing
scattered FP adds to overlapping output elements, interleaved with streaming
reads of matrix values — is preserved.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.commutative import CommutativeOp
from repro.sim.columnar import ACCESS_DTYPE, ColumnarTrace, encode_value
from repro.workloads.base import UpdateStyle, Workload


def interleave_blocks(n_blocks: int, inner_counts: np.ndarray):
    """Index arrays for the ``[head, (a, b) * count]`` per-block layout.

    Several generators emit, per logical block (matrix column, graph
    vertex), one *head* access followed by ``count`` pairs of accesses.
    Returns ``(total_length, head_positions, pair_first_positions)`` such
    that block ``i`` occupies ``[head[i], head[i] + 1 + 2 * count[i])`` and
    its ``j``-th pair sits at ``pair_first[c + j]``/``pair_first[c + j] + 1``
    (``c`` = pairs before block ``i``).
    """
    inner_counts = np.asarray(inner_counts, dtype=np.int64)
    blocks = 1 + 2 * inner_counts
    heads = np.zeros(n_blocks, dtype=np.int64)
    if n_blocks > 1:
        np.cumsum(blocks[:-1], out=heads[1:])
    total_pairs = int(inner_counts.sum())
    pairs_before = np.zeros(n_blocks, dtype=np.int64)
    if n_blocks > 1:
        np.cumsum(inner_counts[:-1], out=pairs_before[1:])
    within = np.arange(total_pairs, dtype=np.int64) - np.repeat(
        pairs_before, inner_counts
    )
    pair_first = np.repeat(heads + 1, inner_counts) + 2 * within
    total = int(blocks.sum()) if n_blocks else 0
    return total, heads, pair_first


class SpmvWorkload(Workload):
    """y += A @ x with A in CSC format and scattered adds to y."""

    name = "spmv"
    comm_op_label = "64b FP add"

    #: Instructions per nonzero outside the output update (load value, load
    #: x[c], multiply, loop overhead).
    THINK_PER_NNZ = 8

    def __init__(
        self,
        n_rows: int = 2048,
        n_cols: int = 2048,
        nnz_per_col: int = 8,
        *,
        bandwidth: float = 0.15,
        seed: int = 42,
        update_style: UpdateStyle = UpdateStyle.COMMUTATIVE,
    ) -> None:
        super().__init__(seed=seed, update_style=update_style)
        if min(n_rows, n_cols, nnz_per_col) <= 0:
            raise ValueError("matrix dimensions and nnz_per_col must be positive")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.nnz_per_col = nnz_per_col
        self.bandwidth = bandwidth
        self.op = CommutativeOp.ADD_F64

    # -- matrix structure ----------------------------------------------------------

    def _column_rows(self) -> List[np.ndarray]:
        """Row indices of the nonzeros in each column.

        A fraction of the nonzeros cluster in a band around the diagonal
        (typical of the paper's structural FEM matrix, rma10) and the rest are
        uniformly random, producing overlap between columns owned by different
        cores.
        """
        rng = self._rng(0)
        columns: List[np.ndarray] = []
        half_band = max(1, int(self.bandwidth * self.n_rows / 2))
        for col in range(self.n_cols):
            center = int(col * self.n_rows / self.n_cols)
            n_banded = max(1, int(self.nnz_per_col * 0.7))
            banded = rng.integers(
                max(0, center - half_band),
                min(self.n_rows, center + half_band + 1),
                size=n_banded,
            )
            n_random = self.nnz_per_col - n_banded
            scattered = rng.integers(0, self.n_rows, size=max(0, n_random))
            rows = np.unique(np.concatenate([banded, scattered]))
            columns.append(rows)
        return columns

    def _y_address(self, row: int) -> int:
        return self.addresses.element("spmv_y", int(row), 8)

    def _value_address(self, nnz_index: int) -> int:
        return self.addresses.element("spmv_vals", int(nnz_index), 8)

    def _x_address(self, col: int) -> int:
        return self.addresses.element("spmv_x", int(col), 8)

    # -- trace generation ------------------------------------------------------------

    def _build_columnar(self, n_cores: int) -> ColumnarTrace:
        """Each core walks its block of matrix columns.

        x[col] is read once per column and stays in registers; each
        nonzero is a value load plus a scattered FP add to y[row].  Each
        column's ``[x-load, (value-load, y-update) * nnz]`` block is
        laid out with :func:`interleave_blocks`; the global nonzero counter
        becomes an arange offset by the partition's cumulative nnz.
        """
        column_rows = self._column_rows()
        partitions = self.split_work(self.n_cols, n_cores)
        x_base = self.addresses.region("spmv_x")
        value_base = self.addresses.region("spmv_vals")
        y_base = self.addresses.region("spmv_y")
        load_code = self._load_code(8)
        update_code = self._update_code(1.0)
        update_delta = encode_value(1.0)[1]
        counts_all = np.fromiter(
            (len(rows) for rows in column_rows), dtype=np.int64, count=self.n_cols
        )
        nnz_before = np.zeros(self.n_cols + 1, dtype=np.int64)
        np.cumsum(counts_all, out=nnz_before[1:])
        columns: List[np.ndarray] = []
        for core_id in range(n_cores):
            part = partitions[core_id]
            counts = counts_all[part.start : part.stop]
            total, heads, pair_first = interleave_blocks(len(part), counts)
            array = np.empty(total, dtype=ACCESS_DTYPE)
            cols = np.arange(part.start, part.stop, dtype=np.uint64)
            array["type_code"][heads] = load_code
            array["address"][heads] = x_base + cols * 8
            array["value_delta"][heads] = 0
            array["compute_gap"][heads] = 4
            total_nnz = int(counts.sum())
            nnz_index = nnz_before[part.start] + np.arange(total_nnz, dtype=np.uint64)
            array["type_code"][pair_first] = load_code
            array["address"][pair_first] = value_base + nnz_index * 8
            array["value_delta"][pair_first] = 0
            array["compute_gap"][pair_first] = self.THINK_PER_NNZ
            if total_nnz:
                rows = np.concatenate(column_rows[part.start : part.stop]).astype(
                    np.uint64
                )
            else:
                rows = np.empty(0, dtype=np.uint64)
            array["type_code"][pair_first + 1] = update_code
            array["address"][pair_first + 1] = y_base + rows * 8
            array["value_delta"][pair_first + 1] = update_delta
            array["compute_gap"][pair_first + 1] = 1
            array["phase"] = 0
            columns.append(array)
        return ColumnarTrace(
            name=self.name,
            columns=columns,
            params={
                "n_rows": self.n_rows,
                "n_cols": self.n_cols,
                "nnz_per_col": self.nnz_per_col,
                "variant": self.update_style.value,
            },
        )

    # -- functional reference -----------------------------------------------------------

    def reference_result(self) -> Optional[Dict[int, object]]:
        """Expected y values when every nonzero contributes 1.0."""
        columns = self._column_rows()
        contributions = np.zeros(self.n_rows)
        for rows in columns:
            contributions[rows] += 1.0
        return {
            self._y_address(row): float(contributions[row])
            for row in range(self.n_rows)
            if contributions[row] > 0
        }
