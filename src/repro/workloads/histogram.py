"""Histogram construction workload (``hist``).

The paper's ``hist`` benchmark is OpenCV's TBB-based histogramming program: a
set of input values (image pixels) is processed in parallel and a histogram
with a configurable number of bins is produced.  Every input element causes a
read of the input (streaming, thread-private) plus one update to a shared bin
counter; with few bins the bin array is heavily contended, with many bins the
per-bin contention drops but privatized implementations pay an ever larger
reduction phase (Fig. 2, Fig. 12).

Variants:

* ``UpdateStyle.ATOMIC`` — the baseline: atomic fetch-and-add on shared bins.
* ``UpdateStyle.COMMUTATIVE`` — COUP commutative additions on shared bins.
* :meth:`HistogramWorkload.generate_privatized` — core- or socket-level
  software privatization with an explicit reduction phase.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.commutative import CommutativeOp
from repro.sim.columnar import ACCESS_DTYPE, ColumnarTrace, make_columns
from repro.software.privatization import (
    PrivatizationLevel,
    PrivatizedReductionBuilder,
    PrivatizedReductionPlan,
    socket_of_core,
)
from repro.workloads.base import UpdateStyle, Workload


class HistogramWorkload(Workload):
    """Parallel histogram of ``n_items`` input values into ``n_bins`` bins."""

    name = "hist"
    comm_op_label = "32b int add"

    #: Instructions spent per input element outside the bin update
    #: (load pixel, compute bin index, loop overhead).
    THINK_PER_ITEM = 12

    def __init__(
        self,
        n_bins: int = 512,
        n_items: int = 50_000,
        *,
        skew: float = 0.0,
        seed: int = 42,
        update_style: UpdateStyle = UpdateStyle.COMMUTATIVE,
        bin_bytes: int = 4,
    ) -> None:
        super().__init__(seed=seed, update_style=update_style)
        if n_bins <= 0 or n_items <= 0:
            raise ValueError("n_bins and n_items must be positive")
        self.n_bins = n_bins
        self.n_items = n_items
        self.skew = skew
        self.bin_bytes = bin_bytes
        self.op = CommutativeOp.ADD_I32

    # -- input generation --------------------------------------------------------

    def _input_bins(self) -> np.ndarray:
        """Bin index of every input element (shared across variants)."""
        rng = self._rng(0)
        if self.skew > 0.0:
            # Zipf-like skew over bins, clipped to the bin range.
            raw = rng.zipf(1.0 + self.skew, size=self.n_items)
            return (raw - 1) % self.n_bins
        return rng.integers(0, self.n_bins, size=self.n_items)

    def _bin_address(self, bin_index: int) -> int:
        return self.addresses.element("hist_bins", int(bin_index), self.bin_bytes)

    def _input_address(self, item_index: int) -> int:
        return self.addresses.element("hist_input", int(item_index), 4)

    # -- shared-histogram variants (atomics / COUP / RMO) -------------------------

    def _build_columnar(self, n_cores: int) -> ColumnarTrace:
        """Shared-histogram variants: columns via array ops.

        Each core reads its block of the input and updates the input's bin:
        the loads land on even slots and the bin updates on odd slots of
        each core's column.
        """
        bins = self._input_bins()
        partitions = self.split_work(self.n_items, n_cores)
        input_base = self.addresses.region("hist_input")
        bin_base = self.addresses.region("hist_bins")
        load_code = self._load_code(4)
        update_code = self._update_code(1)
        bin_bytes = self.bin_bytes
        columns: List[np.ndarray] = []
        for core_id in range(n_cores):
            part = partitions[core_id]
            array = np.empty(2 * len(part), dtype=ACCESS_DTYPE)
            items = np.arange(part.start, part.stop, dtype=np.uint64)
            array["type_code"][0::2] = load_code
            array["type_code"][1::2] = update_code
            array["address"][0::2] = input_base + items * 4
            array["address"][1::2] = (
                bin_base + bins[part.start : part.stop].astype(np.uint64) * bin_bytes
            )
            array["value_delta"][0::2] = 0
            array["value_delta"][1::2] = 1
            array["compute_gap"][0::2] = self.THINK_PER_ITEM
            array["compute_gap"][1::2] = 2
            array["phase"] = 0
            columns.append(array)
        return ColumnarTrace(
            name=self.name,
            columns=columns,
            params={
                "n_bins": self.n_bins,
                "n_items": self.n_items,
                "variant": self.update_style.value,
            },
        )

    # -- privatized variants -------------------------------------------------------

    def generate_privatized(
        self,
        n_cores: int,
        *,
        level: PrivatizationLevel = PrivatizationLevel.CORE,
        cores_per_socket: int = 16,
    ) -> ColumnarTrace:
        """Software-privatized histogram with an explicit reduction phase.

        Core-level privatization gives each thread its own bin array updated
        with plain loads and stores; socket-level privatization shares one
        replica per socket, updated with atomics.  After a barrier, bins are
        partitioned among cores and each core folds every replica into the
        shared histogram (Fig. 12's two software schemes).

        Built as packed columns: each core loads its inputs, then applies its
        updates to its replica, then (after the phase boundary) does its share
        of the reduction.
        """
        if n_cores <= 0:
            raise ValueError("n_cores must be positive")
        bins = self._input_bins()
        partitions = self.split_work(self.n_items, n_cores)

        if level is PrivatizationLevel.CORE:
            n_replicas = n_cores
            replica_of_core = lambda core: core  # noqa: E731 - tiny adapter
        else:
            n_replicas = max(1, (n_cores + cores_per_socket - 1) // cores_per_socket)
            replica_of_core = socket_of_core(cores_per_socket)

        plan = PrivatizedReductionPlan(
            n_elements=self.n_bins,
            element_bytes=self.bin_bytes,
            op=self.op,
            level=level,
            n_replicas=n_replicas,
        )
        builder = PrivatizedReductionBuilder(
            plan, self.addresses, array_name="hist_priv", replica_of_core=replica_of_core
        )

        input_base = self.addresses.region("hist_input")
        load_code = self._load_code(4)
        columns: List[np.ndarray] = []
        update_counts: List[int] = []
        for core_id in range(n_cores):
            part = partitions[core_id]
            items = np.arange(part.start, part.stop, dtype=np.uint64)
            inputs = make_columns(load_code, input_base + items * 4, 0, self.THINK_PER_ITEM)
            updates = builder.update_phase(
                core_id, bins[part.start : part.stop], values=1, think=2
            )
            reduction = builder.reduction_phase(core_id, n_cores)
            update_counts.append(len(inputs) + len(updates))
            columns.append(np.concatenate((inputs, updates, reduction)))

        return ColumnarTrace(
            name=f"{self.name}-priv-{level.value}",
            columns=columns,
            params={
                "n_bins": self.n_bins,
                "n_items": self.n_items,
                "variant": f"privatization-{level.value}",
                "n_replicas": n_replicas,
                "footprint_bytes": plan.footprint_bytes,
            },
            phase_boundaries=[update_counts],
        )

    # -- functional reference -------------------------------------------------------

    def reference_result(self) -> Optional[Dict[int, object]]:
        """Expected final bin counts (address -> count) for shared variants."""
        bins = self._input_bins()
        counts = np.bincount(bins, minlength=self.n_bins)
        return {
            self._bin_address(b): int(counts[b])
            for b in range(self.n_bins)
            if counts[b] > 0
        }
