"""The columnar privatized-histogram builder against a frozen object-form one.

``HistogramWorkload.generate_privatized`` builds its columns with NumPy.  The
object-form builder it replaced is kept below, verbatim, as the reference:
one :class:`MemoryAccess` per record, packed afterwards.  Over a grid of
levels, socket sizes, core counts, update styles and workload shapes, the
two must agree exactly: every column array-equal, the same ``name``,
``params`` and ``phase_boundaries``, and the same lazy region-allocation
order in the workload's :class:`AddressMap`.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

import numpy as np
import pytest

from repro.sim.access import AccessType, MemoryAccess, Trace, WorkloadTrace
from repro.sim.columnar import ColumnarTrace, as_columnar
from repro.software.privatization import (
    PrivatizationLevel,
    PrivatizedReductionPlan,
    socket_of_core,
)
from repro.workloads.base import AddressMap, UpdateStyle
from repro.workloads.histogram import HistogramWorkload


class ReferenceReductionBuilder:
    """The object-form ``PrivatizedReductionBuilder``, frozen."""

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
        self._replica_bases: dict = {}
        self._shared_base: int = None

    def _replica_base(self, replica: int) -> int:
        base = self._replica_bases.get(replica)
        if base is None:
            base = self.addresses.region(f"{self.array_name}_replica_{replica}")
            self._replica_bases[replica] = base
        return base

    def update_phase(
        self, core_id: int, updates: Sequence[Tuple[int, object, int]]
    ) -> Trace:
        replica = self.replica_of_core(core_id)
        trace: Trace = []
        if not updates:
            return trace
        append = trace.append
        private_replica = self.plan.level is PrivatizationLevel.CORE
        base = self._replica_base(replica)
        element_bytes = self.plan.element_bytes
        op = self.plan.op
        for element, value, think in updates:
            address = base + element * element_bytes
            if private_replica:
                append(MemoryAccess(AccessType.LOAD, address, think_instructions=think))
                append(MemoryAccess(AccessType.STORE, address, think_instructions=1))
            else:
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

    def reduction_phase(self, core_id: int, n_cores: int) -> Trace:
        trace: Trace = []
        append = trace.append
        n_elements = self.plan.n_elements
        bounds = [
            (n_elements * i) // n_cores for i in range(n_cores + 1)
        ]
        if bounds[core_id] == bounds[core_id + 1]:
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


def reference_generate_privatized(
    self: HistogramWorkload,
    n_cores: int,
    *,
    level: PrivatizationLevel = PrivatizationLevel.CORE,
    cores_per_socket: int = 16,
) -> WorkloadTrace:
    """The object-form ``HistogramWorkload.generate_privatized``, frozen."""
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
    builder = ReferenceReductionBuilder(
        plan, self.addresses, array_name="hist_priv", replica_of_core=replica_of_core
    )

    input_base = self.addresses.region("hist_input")
    load_t = AccessType.LOAD
    think_per_item = self.THINK_PER_ITEM
    per_core: List[Trace] = []
    update_counts: List[int] = []
    for core_id in range(n_cores):
        updates = []
        trace: Trace = []
        for item in partitions[core_id]:
            trace.append(
                MemoryAccess(
                    load_t,
                    input_base + item * 4,
                    think_instructions=think_per_item,
                    size_bytes=4,
                )
            )
            updates.append((int(bins[item]), 1, 2))
        trace.extend(builder.update_phase(core_id, updates))
        update_counts.append(len(trace))
        trace.extend(builder.reduction_phase(core_id, n_cores))
        per_core.append(trace)

    return WorkloadTrace(
        name=f"{self.name}-priv-{level.value}",
        per_core=per_core,
        params={
            "n_bins": self.n_bins,
            "n_items": self.n_items,
            "variant": f"privatization-{level.value}",
            "n_replicas": n_replicas,
            "footprint_bytes": plan.footprint_bytes,
        },
        phase_boundaries=[update_counts],
    )


#: ``(n_bins, n_items)`` shapes: an ordinary one, fewer items than the
#: larger core counts (cores without updates allocate no replica), fewer bins
#: than cores (cores without a share of the reduction allocate nothing), and
#: both at once, where a core without items comes before the first core with
#: a share of the reduction, so the replica it skips is allocated later.
SHAPES = [(64, 300), (40, 5), (3, 200), (3, 5)]


@pytest.mark.parametrize("n_bins,n_items", SHAPES, ids=[f"{b}bins-{i}items" for b, i in SHAPES])
@pytest.mark.parametrize("style", list(UpdateStyle), ids=lambda style: style.value)
@pytest.mark.parametrize("n_cores", [1, 3, 8, 32])
@pytest.mark.parametrize("cores_per_socket", [2, 16])
@pytest.mark.parametrize("level", list(PrivatizationLevel), ids=lambda level: level.value)
def test_columns_equal_frozen_object_builder(level, cores_per_socket, n_cores, style, n_bins, n_items):
    def make():
        return HistogramWorkload(n_bins=n_bins, n_items=n_items, skew=0.8, update_style=style)

    reference_workload = make()
    reference = ColumnarTrace.from_workload(
        reference_generate_privatized(
            reference_workload, n_cores, level=level, cores_per_socket=cores_per_socket
        )
    )
    workload = make()
    trace = as_columnar(
        workload.generate_privatized(n_cores, level=level, cores_per_socket=cores_per_socket)
    )

    assert trace.name == reference.name
    assert trace.params == reference.params
    assert trace.phase_boundaries == reference.phase_boundaries
    assert len(trace.columns) == len(reference.columns) == n_cores
    for column, expected in zip(trace.columns, reference.columns):
        assert column.dtype == expected.dtype
        assert np.array_equal(column, expected)
    assert list(workload.addresses._regions.items()) == list(
        reference_workload.addresses._regions.items()
    )
