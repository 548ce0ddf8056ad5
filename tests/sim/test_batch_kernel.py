"""Batched-kernel equivalence: batch-boundary grids and fallback paths.

The batched columnar kernel (:mod:`repro.sim.kernel`) must be bit-identical
to the scalar columnar loop for every chunking of the trace: window edges,
single-access windows, and windows longer than the trace all exercise
different scheduling interleavings of hit-run application and boundary
accesses.  ``SimulationResult.to_jsonable()`` is compared verbatim (it
covers run cycles, per-core statistics, traffic, and the functional memory
image), per the ISSUE 5 acceptance criteria.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.commutative import CommutativeOp
from repro.sim.access import MemoryAccess, WorkloadTrace
from repro.sim.columnar import CODE_KIND, ColumnarTrace
from repro.sim.config import small_test_config
from repro.sim.kernel import MAX_STEP_SLICE, BatchedKernel, kernel_mode
from repro.sim.simulator import MulticoreSimulator, make_protocol, simulate
from repro.sim.stats import CoreStats
from repro.workloads.base import UpdateStyle
from repro.workloads.histogram import HistogramWorkload
from repro.workloads.synthetic import (
    InterleavedReadUpdateWorkload,
    MultiCounterWorkload,
    ScalarReductionWorkload,
    SharedCounterWorkload,
)

N_CORES = 8

PROTOCOLS = ("MESI", "COUP", "RMO")

#: At least three workloads spanning load/store/atomic/commutative/remote
#: traffic, phase barriers (scalar reduction), and U-state buffering.
WORKLOADS = {
    "hist": lambda: HistogramWorkload(
        n_bins=32, n_items=400, update_style=UpdateStyle.COMMUTATIVE
    ),
    "multi-counter": lambda: MultiCounterWorkload(
        n_counters=32, updates_per_core=150, hot_fraction=0.3
    ),
    "scalar-reduction": lambda: ScalarReductionWorkload(items_per_core=200),
    "shared-counter-remote": lambda: SharedCounterWorkload(
        updates_per_core=120, update_style=UpdateStyle.REMOTE
    ),
}


def _simulate(trace, protocol, monkeypatch, mode, chunk=None):
    import repro.sim.kernel as kernel_module

    monkeypatch.setenv("REPRO_SIM_KERNEL", mode)
    if chunk is not None:
        monkeypatch.setattr(kernel_module, "DEFAULT_BATCH_SIZE", chunk)
    config = small_test_config(N_CORES)
    return simulate(trace, config, protocol, track_values=True)


def _columnar(factory) -> ColumnarTrace:
    return factory().generate_columnar(N_CORES)


@pytest.fixture(scope="module")
def traces():
    return {name: _columnar(factory) for name, factory in WORKLOADS.items()}


@pytest.fixture(scope="module")
def scalar_results(traces):
    import os

    previous = os.environ.get("REPRO_SIM_KERNEL")
    os.environ["REPRO_SIM_KERNEL"] = "scalar"
    try:
        results = {}
        for name, trace in traces.items():
            for protocol in PROTOCOLS:
                config = small_test_config(N_CORES)
                results[(name, protocol)] = simulate(
                    trace, config, protocol, track_values=True
                ).to_jsonable()
        return results
    finally:
        if previous is None:
            del os.environ["REPRO_SIM_KERNEL"]
        else:
            os.environ["REPRO_SIM_KERNEL"] = previous


def _chunk_sizes(trace: ColumnarTrace):
    """Chunk sizes 1, 7, exact trace length, and trace length + 1."""
    trace_len = max(len(column) for column in trace.columns)
    return (1, 7, trace_len, trace_len + 1)


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_batched_bit_identical_across_chunk_sizes(
    workload_name, protocol, traces, scalar_results, monkeypatch
):
    """Forced-batch runs match the scalar path for every chunk boundary."""
    trace = traces[workload_name]
    reference = scalar_results[(workload_name, protocol)]
    for chunk in _chunk_sizes(trace):
        result = _simulate(trace, protocol, monkeypatch, "batch", chunk=chunk)
        assert result.to_jsonable() == reference, (
            f"{workload_name}/{protocol} diverges at DEFAULT_BATCH_SIZE={chunk}"
        )


def _cold_start_sizes(trace: ColumnarTrace):
    """Prefixes 1, 7, an exact phase (or trace) length, and one past it."""
    if trace.phase_boundaries:
        exact = int(trace.phase_boundaries[0][0])
    else:
        exact = max(len(column) for column in trace.columns)
    return (1, 7, exact, exact + 1)


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_auto_mode_bit_identical(
    workload_name, protocol, traces, scalar_results, monkeypatch
):
    """The default auto mode (cold start and bail-out included) matches
    too, wherever the cold-start stint ends.

    The stint hands off when a core exhausts its decoded prefix, so each
    prefix moves the scalar-to-kernel handoff: to the first access,
    mid-trace, exactly onto a phase barrier or the trace end, and just past
    it.  The default prefix outlasts these traces.
    """
    import repro.sim.simulator as sim_module

    trace = traces[workload_name]
    reference = scalar_results[(workload_name, protocol)]
    result = _simulate(trace, protocol, monkeypatch, "auto")
    assert result.to_jsonable() == reference
    for prefix in _cold_start_sizes(trace):
        monkeypatch.setattr(sim_module, "COLD_START_ACCESSES", prefix)
        result = _simulate(trace, protocol, monkeypatch, "auto")
        assert result.to_jsonable() == reference, (
            f"{workload_name}/{protocol} diverges at COLD_START_ACCESSES={prefix}"
        )


def test_non_dyadic_config_runs_scalar(monkeypatch):
    """A non-dyadic CPI never enters the kernel, in batch mode too."""
    import repro.sim.kernel as kernel_module

    config = small_test_config(4)
    config = dataclasses.replace(
        config, core=dataclasses.replace(config.core, cycles_per_instruction=0.3)
    )
    trace = HistogramWorkload(
        n_bins=16, n_items=200, update_style=UpdateStyle.COMMUTATIVE
    ).generate_columnar(4)

    monkeypatch.setenv("REPRO_SIM_KERNEL", "scalar")
    reference = simulate(trace, config, "COUP", track_values=True)

    def no_kernel(*args, **kwargs):
        raise AssertionError("a non-dyadic configuration entered the kernel")

    monkeypatch.setattr(kernel_module, "BatchedKernel", no_kernel)
    for mode in ("batch", "auto"):
        monkeypatch.setenv("REPRO_SIM_KERNEL", mode)
        result = simulate(trace, config, "COUP", track_values=True)
        assert result.to_jsonable() == reference.to_jsonable()


@pytest.mark.parametrize("workload_name", ["hist", "multi-counter"])
def test_clock_guard_hands_run_to_scalar(workload_name, traces, monkeypatch):
    """A hit-run crossing the exactness guard finishes in the scalar loop.

    The guard is lowered so it trips early, mid-run and late; the runs
    still match the scalar loop, and the lowest guard certainly trips.
    """
    import repro.obs as obs
    import repro.sim.kernel as kernel_module
    import repro.sim.simulator as sim_module

    trace = traces[workload_name]
    config = small_test_config(N_CORES)
    monkeypatch.setenv("REPRO_SIM_KERNEL", "scalar")
    reference = simulate(trace, config, "COUP", track_values=True).to_jsonable()
    # Hand auto's cold start to the kernel early, so auto reaches the guard.
    monkeypatch.setattr(sim_module, "COLD_START_ACCESSES", 16)
    for limit in (1e3, 1e4, 1e5):
        monkeypatch.setattr(kernel_module, "_EXACT_CLOCK_LIMIT", limit)
        for mode in ("batch", "auto"):
            monkeypatch.setenv("REPRO_SIM_KERNEL", mode)
            registry = obs.reconfigure("counters")
            try:
                result = simulate(trace, config, "COUP", track_values=True)
                trips = registry.counter("kernel.bail.clock_limit")
            finally:
                obs.reconfigure()
            assert result.to_jsonable() == reference, (
                f"{workload_name} diverges under {mode} with the guard at {limit}"
            )
            if limit == 1e3 and mode == "batch":
                assert trips > 0


@pytest.mark.parametrize(
    "workload_name, protocol",
    [("hist", "MESI"), ("shared-counter-remote", "COUP")],
)
def test_kernel_bails_to_scalar_and_results_match(workload_name, protocol, monkeypatch):
    """A hand-forced bail-out mid-run resumes the scalar loop exactly."""
    import repro.sim.kernel as kernel_module

    trace = _columnar(WORKLOADS[workload_name])
    config = small_test_config(N_CORES)
    monkeypatch.setenv("REPRO_SIM_KERNEL", "scalar")
    reference = simulate(trace, config, protocol, track_values=True)

    # Every probation interval strikes, and one strike bails.
    monkeypatch.setattr(kernel_module, "BAIL_HITS_PER_CORE_EVENT", 10**9)
    monkeypatch.setattr(kernel_module, "BAIL_STRIKES", 1)
    engine = make_protocol(protocol, config, track_values=True)
    simulator = MulticoreSimulator(config, engine, track_values=True)
    kernel = BatchedKernel(simulator, trace)
    kernel._bail_next = 1
    handoff = kernel.run()
    assert handoff is not None, "kernel did not bail"
    result = simulator._run_columnar_scalar(trace, resume=handoff)
    assert result.to_jsonable() == reference.to_jsonable()


def test_probation_judges_hits_per_runnable_core():
    """The bail rule reads only the work counters and the runnable cores."""
    import repro.sim.kernel as kernel_module

    trace = _columnar(WORKLOADS["hist"])
    config = small_test_config(N_CORES)
    engine = make_protocol("MESI", config)
    kernel = BatchedKernel(MulticoreSimulator(config, engine), trace)

    def judge(hits, slow, runnable=N_CORES):
        kernel._hits_batched += hits
        kernel._slow_events += slow
        return kernel._judge_interval(runnable)

    slow = kernel_module.BAIL_INTERVAL
    per_core = kernel_module.BAIL_HITS_PER_CORE_EVENT * slow
    # Break-even scales with the runnable cores the scheduler walks.
    assert judge(per_core * N_CORES, slow) is None
    assert kernel._bail_next == kernel._slow_events + kernel_module.BAIL_INTERVAL
    assert judge(per_core * N_CORES - 1, slow) is None  # first strike
    assert kernel._bail_strikes == 1
    # A struck stint is re-judged after a short probe.
    assert kernel._bail_next == kernel._slow_events + kernel_module.BAIL_PROBE
    assert judge(per_core * N_CORES, slow) is None  # a passing interval clears
    assert kernel._bail_strikes == 0
    assert judge(per_core * 2, slow, runnable=2) is None
    assert judge(per_core * 2 - 1, slow, runnable=2) is None
    assert judge(per_core * 2 - 1, slow, runnable=2) == "strikes"
    # Fewer hits than slow events bails on the spot, strikes or not.
    kernel._bail_strikes = 0
    kernel._reset_probation(kernel_module.BAIL_INTERVAL)
    assert judge(slow - 1, slow) == "hard"


def test_bailed_run_finishes_in_the_scalar_loop(monkeypatch):
    """After a bail the scalar loop finishes the run (and matches): the
    kernel gets at most one stint, whatever hit streaks follow."""
    import repro.obs as obs
    import repro.sim.kernel as kernel_module

    # Runs of 200 buffered updates separated by reads that force reductions:
    # the update runs make global hit streaks well past the cold-start
    # handoff's, the reads make the kernel bail.
    trace = InterleavedReadUpdateWorkload(
        n_elements=16, updates_per_read=200, rounds=15
    ).generate_columnar(4)
    config = small_test_config(4)
    monkeypatch.setenv("REPRO_SIM_KERNEL", "scalar")
    reference = simulate(trace, config, "COUP", track_values=True)

    # Make every probation interval strike, so the kernel stint bails early.
    monkeypatch.setenv("REPRO_SIM_KERNEL", "auto")
    monkeypatch.setattr(kernel_module, "BAIL_PROBE", 2)
    monkeypatch.setattr(kernel_module, "BAIL_INTERVAL", 2)
    monkeypatch.setattr(kernel_module, "BAIL_HITS_PER_CORE_EVENT", 10**9)
    registry = obs.reconfigure("counters")
    try:
        result = simulate(trace, config, "COUP", track_values=True)
        counters = registry.snapshot()["counters"]
    finally:
        obs.reconfigure()
    assert result.to_jsonable() == reference.to_jsonable()
    stints = {
        name: count
        for name, count in counters.items()
        if name.startswith(("kernel.stint.", "sim.stint."))
    }
    # One cold start, one kernel stint that bails, one scalar stint to the
    # end; the streaks after the bail open no further kernel stint.
    assert stints == {
        "sim.stint.cold_start": 1,
        "kernel.stint.enter": 1,
        "kernel.stint.bail": 1,
        "sim.stint.scalar": 1,
    }


def test_env_knob_parsing(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_KERNEL", "BATCH")
    assert kernel_mode() == "batch"
    monkeypatch.setenv("REPRO_SIM_KERNEL", "scalr")
    with pytest.raises(ValueError, match=r"auto\|batch\|scalar"):
        kernel_mode()
    monkeypatch.setenv("REPRO_SIM_KERNEL", " ")
    assert kernel_mode() == "auto"
    monkeypatch.delenv("REPRO_SIM_KERNEL", raising=False)
    assert kernel_mode() == "auto"


def _lru_refresh_trace(n_hits: int, l1_sets: int) -> WorkloadTrace:
    """One core fills an L1 set, hits it ``n_hits`` times, then misses into it.

    Four lines fill L1 set 0.  The hits visit them in a scrambled order
    whose last occurrences run C, A, D, B, so the set's recency order after
    the hit-run is neither fill order nor its reverse: the correct LRU
    victim is C.  A fifth line then misses into the set, and C and B — the
    would-be victims under the right and the reversed order — are touched
    again, so the hit/miss counts and the final residency both depend on
    which line the miss evicted.
    """
    a, b, c, d, e = (way * l1_sets for way in range(5))
    tail = [c, a, d, b]
    rng = np.random.default_rng(n_hits)
    body = rng.permutation(np.resize([a, b, c, d], n_hits - len(tail))).tolist()
    lines = [a, b, c, d] + body + tail + [e, c, b]
    return WorkloadTrace(
        name="lru-refresh",
        per_core=[[MemoryAccess.load(line * 64, think=1) for line in lines]],
    )


@pytest.mark.parametrize(
    "n_hits",
    [
        pytest.param(200, id="vectorized-200"),
        pytest.param(MAX_STEP_SLICE + 1, id="vectorized-threshold+1"),
        pytest.param(MAX_STEP_SLICE, id="step-threshold"),
        pytest.param(6, id="step-6"),
    ],
)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_batched_hit_run_refreshes_lru_in_last_use_order(protocol, n_hits, monkeypatch):
    """The kernel's bulk LRU refresh leaves the set in per-access order.

    Golden fingerprints and bench pins do not reach this: their hit-runs
    never decide an eviction inside a fully re-ordered set.  The window is
    widened so the whole hit-run is one slice of ``BatchedKernel._apply``
    (asserted): up to ``MAX_STEP_SLICE`` hits it retires through the
    engine's step, one past it through the vectorized reductions.
    """
    import repro.sim.kernel as kernel_module

    monkeypatch.setattr(kernel_module, "MIN_WINDOW", 4096)
    slices = []
    apply = BatchedKernel._apply

    def recording_apply(kernel, core, cut):
        slices.append(cut - core.applied)
        apply(kernel, core, cut)

    monkeypatch.setattr(BatchedKernel, "_apply", recording_apply)
    base = small_test_config(1)
    config = dataclasses.replace(
        base, l1d=dataclasses.replace(base.l1d, ways=4)
    )
    trace = ColumnarTrace.from_workload(
        _lru_refresh_trace(n_hits, config.l1d.num_sets)
    )
    outcomes = {}
    for mode in ("scalar", "batch"):
        monkeypatch.setenv("REPRO_SIM_KERNEL", mode)
        engine = make_protocol(protocol, config, track_values=True)
        result = MulticoreSimulator(config, engine, track_values=True).run(trace)
        l1 = engine.hierarchy.l1[0]
        resident = sorted(line for line in range(5 * config.l1d.num_sets) if line in l1)
        outcomes[mode] = (result.to_jsonable(), resident)
    assert n_hits in slices
    assert outcomes["batch"] == outcomes["scalar"]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_step_slice_rejects_an_access_that_is_not_a_hit(protocol, monkeypatch):
    """A hot mask that calls a miss hot fails loudly in the step loop.

    The step would resolve the miss through ``resolve_slow`` outside scalar
    order; the slice's hit count catches it and names the core and index.
    """
    monkeypatch.setenv("REPRO_SIM_KERNEL", "batch")
    config = small_test_config(1)
    engine = make_protocol(protocol, config, track_values=True)
    monkeypatch.setattr(
        engine, "hot_mask", lambda kinds, *rest: np.ones(len(kinds), dtype=bool)
    )
    trace = WorkloadTrace(
        name="cold", per_core=[[MemoryAccess.load(line * 64) for line in range(10)]]
    )
    with pytest.raises(RuntimeError, match=r"core 0 .* trace index 0\b"):
        MulticoreSimulator(config, engine, track_values=True).run(trace)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_step_issue_timing_matches_the_kernel_for_every_code(protocol):
    """The step and the kernel's long-slice path charge the same issue timing.

    One access of every type code is stepped on a fresh engine: its
    per-type counter must be the one ``CODE_KIND`` names, and its compute
    cycles ``gap * cpi`` plus the kernel's ``_overhead_by_kind`` entry.
    """
    config = small_test_config(1)
    trace = ColumnarTrace.from_workload(
        WorkloadTrace(name="one", per_core=[[MemoryAccess.load(0)]])
    )
    kernel = BatchedKernel(
        MulticoreSimulator(config, make_protocol(protocol, config)), trace
    )
    counters = ("loads", "stores", "atomics", "commutative_updates", "remote_updates")
    gap = 3.0
    for code, kind in enumerate(CODE_KIND.tolist()):
        step = make_protocol(protocol, config, track_values=False).make_step()
        stats = CoreStats(core_id=0)
        step(0, code, 0x40, None, gap, 0.0, stats)
        assert [getattr(stats, name) for name in counters] == [
            int(index == kind) for index in range(len(counters))
        ], f"type code {code}"
        assert stats.compute_cycles == (
            gap * config.core.cycles_per_instruction + kernel._overhead_by_kind[kind]
        ), f"type code {code}"


class TestWindowDrops:
    """A boundary access drops exactly the classified windows it may change."""

    @staticmethod
    def _batch_against_scalar(per_core, protocol, monkeypatch):
        """Run a trace in the scalar loop and forced-batch; return both
        results and the kernel's ``(slow_events, hits_batched)``."""
        import repro.obs as obs

        trace = WorkloadTrace(name="drops", per_core=per_core)
        config = small_test_config(len(per_core))
        monkeypatch.setenv("REPRO_SIM_KERNEL", "scalar")
        reference = simulate(trace, config, protocol, track_values=True)
        monkeypatch.setenv("REPRO_SIM_KERNEL", "batch")
        registry = obs.reconfigure("counters")
        try:
            result = simulate(trace, config, protocol, track_values=True)
            counters = registry.snapshot()["counters"]
        finally:
            obs.reconfigure()
        work = (counters["kernel.slow_events"], counters["kernel.hits_batched"])
        return result.to_jsonable(), reference.to_jsonable(), work

    def test_invalidation_drops_another_cores_hot_window(self, monkeypatch):
        """Core 0 classifies 40 hits to line 0; core 1's store then
        invalidates the line, so core 0's next access must go slow."""
        per_core = [
            [MemoryAccess.load(0)] * 41,
            [MemoryAccess.store(0, 7)],
        ]
        batch, scalar, work = self._batch_against_scalar(per_core, "MESI", monkeypatch)
        assert batch == scalar
        # Core 0's cold load, core 1's store, core 0's reload; 39 hits.
        assert work == (3, 39)

    def test_executing_cores_window_is_recomputed(self, monkeypatch):
        """After each slow access the executing core reclassifies: the
        line it just filled turns hot, and the line its later misses
        evict from the two-way set turns slow again."""
        l1_set_stride = small_test_config(1).l1d.num_sets * 64
        per_core = [
            [MemoryAccess.load(0)] * 21
            + [MemoryAccess.load(l1_set_stride), MemoryAccess.load(2 * l1_set_stride)]
            + [MemoryAccess.load(0)] * 21
        ]
        batch, scalar, work = self._batch_against_scalar(per_core, "MESI", monkeypatch)
        assert batch == scalar
        # The two loads of line 0 that miss and the two conflicting loads.
        assert work == (4, 40)

    def test_reduction_drops_a_buffering_cores_window(self, monkeypatch):
        """Core 0 buffers its commutative adds to line 0 in U; core 1's
        load reduces the line, so core 0's next add must go slow."""
        add = MemoryAccess.commutative(0, CommutativeOp.ADD_I64, 1)
        per_core = [[add] * 41, [MemoryAccess.load(0, think=5)]]
        batch, scalar, work = self._batch_against_scalar(per_core, "COUP", monkeypatch)
        assert batch == scalar
        # Core 0's first add, core 1's reducing load, core 0's next add.
        assert work == (3, 39)

    def test_same_op_updater_keeps_a_buffering_cores_window(self, monkeypatch):
        """A second core joining line 0 in U with the same op reduces
        nothing, so core 0's U line keeps classifying hot."""
        add = MemoryAccess.commutative(0, CommutativeOp.ADD_I64, 1)
        per_core = [[add] * 41, [add]]
        batch, scalar, work = self._batch_against_scalar(per_core, "COUP", monkeypatch)
        assert batch == scalar
        # Each core's first add; core 0's other 40 adds buffer locally.
        assert work == (2, 40)
