"""Round-trip tests for the columnar trace format.

Codec exactness protects the packed representation:
``ColumnarTrace.from_workload`` followed by ``to_workload`` reproduces every
access (``MemoryAccess.__eq__``), the phase boundaries, and the metadata,
for traces from every workload and update style (and for adversarial
hand-built records: uint64 bit masks, negative deltas, float operands,
``None`` store values).  ``CASES`` is also the grid of
``test_builder_reference.py``, which pins each workload's builder to a
frozen object-form one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.commutative import CommutativeOp
from repro.sim.access import AccessType, MemoryAccess, WorkloadTrace
from repro.sim.columnar import (
    ACCESS_DTYPE,
    ColumnarTrace,
    TraceCodecError,
    pack_accesses,
    unpack_accesses,
)
from repro.workloads import UpdateStyle
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

UPDATE_STYLES = tuple(UpdateStyle)

#: Factories for every workload family; each call returns a fresh instance
#: (trace builders allocate address regions on first use, so instances are
#: never reused across representations).
WORKLOAD_FACTORIES = {
    "hist": lambda style: HistogramWorkload(
        n_bins=32, n_items=400, update_style=style
    ),
    "hist-skew": lambda style: HistogramWorkload(
        n_bins=32, n_items=400, skew=0.7, update_style=style
    ),
    "spmv": lambda style: SpmvWorkload(
        n_rows=64, n_cols=72, nnz_per_col=4, update_style=style
    ),
    "pgrank": lambda style: PageRankWorkload(
        n_vertices=96, avg_degree=4, n_iterations=2, update_style=style
    ),
    "bfs": lambda style: BfsWorkload(
        n_vertices=160, avg_degree=5, max_levels=4, update_style=style
    ),
    "fluidanimate": lambda style: FluidanimateWorkload(
        grid_x=6, grid_y=20, n_steps=2, update_style=style
    ),
    "shared-counter": lambda style: SharedCounterWorkload(
        updates_per_core=40, update_style=style
    ),
    "multi-counter": lambda style: MultiCounterWorkload(
        n_counters=16, updates_per_core=40, update_style=style
    ),
    "multi-counter-hot": lambda style: MultiCounterWorkload(
        n_counters=16, updates_per_core=40, hot_fraction=0.4, update_style=style
    ),
    "false-sharing": lambda style: FalseSharingWorkload(
        updates_per_core=30, update_style=style
    ),
    "scalar-reduction": lambda style: ScalarReductionWorkload(
        items_per_core=25, update_style=style
    ),
    "interleaved": lambda style: InterleavedReadUpdateWorkload(
        rounds=12, updates_per_read=3, update_style=style
    ),
}

#: Style-less workloads (they fix their own update style or scheme).
FIXED_FACTORIES = {
    "read-only": lambda: ReadOnlyWorkload(reads_per_core=40),
    "mixed-ops": lambda: MixedOpWorkload(updates_per_core=140, switch_every=7),
    "refcount-xadd": lambda: ImmediateRefcountWorkload(
        n_counters=48, updates_per_thread=80, scheme=RefcountScheme.XADD
    ),
    "refcount-coup-high": lambda: ImmediateRefcountWorkload(
        n_counters=48,
        updates_per_thread=80,
        scheme=RefcountScheme.COUP,
        count_mode=CountMode.HIGH,
    ),
    "refcount-snzi": lambda: ImmediateRefcountWorkload(
        n_counters=24, updates_per_thread=50, scheme=RefcountScheme.SNZI
    ),
    "refcount-delayed-coup": lambda: DelayedRefcountWorkload(
        n_counters=128, updates_per_epoch=30, n_epochs=2, scheme=RefcountScheme.COUP
    ),
    "refcount-delayed-refcache": lambda: DelayedRefcountWorkload(
        n_counters=128, updates_per_epoch=30, n_epochs=2, scheme=RefcountScheme.REFCACHE
    ),
}


def _all_cases():
    for name, factory in WORKLOAD_FACTORIES.items():
        for style in UPDATE_STYLES:
            yield f"{name}/{style.value}", (lambda f=factory, s=style: f(s))
    for name, factory in FIXED_FACTORIES.items():
        yield name, factory


CASES = dict(_all_cases())


def _assert_traces_equal(original: WorkloadTrace, restored: WorkloadTrace):
    assert restored.name == original.name
    assert restored.params == original.params
    assert restored.phase_boundaries == original.phase_boundaries
    assert len(restored.per_core) == len(original.per_core)
    for mine, theirs in zip(original.per_core, restored.per_core):
        assert mine == theirs


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("n_cores", [1, 3, 6])
def test_pack_unpack_roundtrip_is_exact(case, n_cores):
    trace = CASES[case]().generate(n_cores)
    restored = ColumnarTrace.from_workload(trace).to_workload()
    _assert_traces_equal(trace, restored)


def test_roundtrip_random_records():
    """Property-style codec sweep over adversarial hand-built records."""
    rng = np.random.default_rng(7)
    accesses = []
    for _ in range(500):
        kind = rng.integers(0, 5)
        address = int(rng.integers(0, 1 << 48))
        think = int(rng.integers(0, 64))
        if kind == 0:
            accesses.append(
                MemoryAccess.load(address, think=think, size=int(rng.choice([1, 2, 4, 8])))
            )
        elif kind == 1:
            value = [None, int(rng.integers(-(1 << 62), 1 << 62)), float(rng.normal())][
                int(rng.integers(0, 3))
            ]
            accesses.append(MemoryAccess.store(address, value, think=think))
        else:
            op = CommutativeOp(
                str(rng.choice([op.value for op in CommutativeOp]))
            )
            if op in (CommutativeOp.AND_64, CommutativeOp.OR_64, CommutativeOp.XOR_64):
                value = int(rng.integers(0, 1 << 63)) | (1 << 63)  # force uint64 range
            elif op in (CommutativeOp.ADD_F32, CommutativeOp.ADD_F64):
                value = float(rng.normal() * 1e9)
            else:
                value = int(rng.integers(-(1 << 31), 1 << 31))
            ctor = [MemoryAccess.atomic, MemoryAccess.commutative, MemoryAccess.remote_update][
                kind - 2
            ]
            accesses.append(ctor(address, op, value, think=think))
    restored = unpack_accesses(pack_accesses(accesses))
    assert restored == accesses
    # The extreme corners individually: uint64 top bit, int64 extremes,
    # denormal and non-finite floats, None stores.
    corners = [
        MemoryAccess.commutative(64, CommutativeOp.OR_64, 1 << 63),
        MemoryAccess.commutative(64, CommutativeOp.AND_64, (1 << 64) - 1),
        MemoryAccess.commutative(64, CommutativeOp.ADD_I64, -(1 << 63)),
        MemoryAccess.commutative(64, CommutativeOp.ADD_I64, (1 << 63) - 1),
        MemoryAccess.commutative(64, CommutativeOp.ADD_F64, 5e-324),
        MemoryAccess.commutative(64, CommutativeOp.ADD_F64, float("inf")),
        MemoryAccess.store(128, None),
        MemoryAccess.store(128, -0.0),
    ]
    restored = unpack_accesses(pack_accesses(corners))
    assert restored == corners
    # -0.0 must keep its sign bit (== cannot see it).
    assert str(restored[-1].value) == "-0.0"


def test_unrepresentable_values_raise_codec_error():
    with pytest.raises(TraceCodecError):
        pack_accesses([MemoryAccess.store(0, value=(1, 2))])
    with pytest.raises(TraceCodecError):
        pack_accesses([MemoryAccess.commutative(0, CommutativeOp.ADD_I64, 1 << 64)])
    with pytest.raises(TraceCodecError):
        pack_accesses([MemoryAccess.load(0, size=3)])


def test_phase_column_reflects_boundaries():
    workload = DelayedRefcountWorkload(
        n_counters=64, updates_per_epoch=20, n_epochs=2
    )
    trace = workload.generate_columnar(3)
    boundaries = np.asarray(trace.phase_boundaries)
    for core_id, column in enumerate(trace.columns):
        phases = column["phase"]
        for access_index in range(len(column)):
            expected = int(np.sum(boundaries[:, core_id] <= access_index))
            assert phases[access_index] == expected


def test_npz_roundtrip(tmp_path):
    trace = HistogramWorkload(n_bins=16, n_items=200).generate_columnar(3)
    path = str(tmp_path / "trace.npz")
    trace.save_npz(path, extra_meta={"origin": "test"})
    loaded, extra = ColumnarTrace.load_npz_with_meta(path)
    assert loaded == trace
    assert extra == {"origin": "test"}
    assert ColumnarTrace.load_npz(path) == trace


def test_empty_trace_roundtrip():
    trace = WorkloadTrace(name="empty", per_core=[[], []])
    packed = ColumnarTrace.from_workload(trace)
    assert packed.total_accesses == 0
    assert all(column.dtype == ACCESS_DTYPE for column in packed.columns)
    restored = packed.to_workload()
    _assert_traces_equal(trace, restored)
