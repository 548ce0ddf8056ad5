"""Tests for the multicore trace-driven simulator."""

from __future__ import annotations

import pytest

from repro.core.commutative import CommutativeOp
from repro.sim.access import MemoryAccess, WorkloadTrace
from repro.sim.config import small_test_config, table1_config
from repro.sim.simulator import (
    PROTOCOLS,
    MulticoreSimulator,
    compare_protocols,
    make_protocol,
    simulate,
)
from repro.workloads import SharedCounterWorkload, UpdateStyle


class TestProtocolRegistry:
    def test_known_protocols(self):
        assert {"MESI", "COUP", "MEUSI", "RMO"} <= set(PROTOCOLS)

    def test_make_protocol_case_insensitive(self):
        config = small_test_config(2)
        assert make_protocol("coup", config).name == "COUP"
        assert make_protocol("mesi", config).name == "MESI"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            make_protocol("MOESI", small_test_config(2))


class TestSimulatorBasics:
    def test_empty_workload(self):
        config = small_test_config(2)
        workload = WorkloadTrace(name="empty", per_core=[[], []])
        result = simulate(workload, config, "MESI")
        assert result.run_cycles == 0
        assert result.total_accesses == 0

    def test_single_core_latency_accumulates(self):
        config = small_test_config(1)
        trace = [MemoryAccess.load(i * 64, think=10) for i in range(5)]
        workload = WorkloadTrace(name="loads", per_core=[trace])
        result = simulate(workload, config, "MESI")
        assert result.total_accesses == 5
        # Run time covers think time plus per-access memory latency.
        think_cycles = 5 * 10 * config.core.cycles_per_instruction
        assert result.run_cycles > think_cycles

    def test_workload_larger_than_machine_rejected(self):
        config = small_test_config(2)
        workload = WorkloadTrace(name="too-big", per_core=[[], [], []])
        with pytest.raises(ValueError):
            simulate(workload, config, "MESI")

    def test_run_cycles_is_max_core_finish_time(self):
        config = small_test_config(2)
        long_trace = [MemoryAccess.load(i * 64, think=50) for i in range(20)]
        short_trace = [MemoryAccess.load(0x5000, think=1)]
        workload = WorkloadTrace(name="skewed", per_core=[long_trace, short_trace])
        result = simulate(workload, config, "MESI")
        finish_times = [stats.finish_time for stats in result.core_stats]
        assert result.run_cycles == pytest.approx(max(finish_times))
        assert finish_times[0] > finish_times[1]

    def test_atomic_overhead_charged_by_core_model(self):
        config = small_test_config(1)
        atomic_wl = WorkloadTrace(
            name="a", per_core=[[MemoryAccess.atomic(0x0, CommutativeOp.ADD_I64, 1)]]
        )
        store_wl = WorkloadTrace(name="s", per_core=[[MemoryAccess.store(0x0, 1)]])
        atomic_run = simulate(atomic_wl, config, "MESI")
        store_run = simulate(store_wl, config, "MESI")
        assert atomic_run.run_cycles > store_run.run_cycles


class TestPhaseBarriers:
    def test_barrier_synchronises_cores(self):
        config = small_test_config(2)
        # Core 0 has lots of phase-0 work; core 1 almost none.  Core 1's
        # phase-1 access cannot start before core 0 reaches the barrier.
        core0 = [MemoryAccess.load(i * 64, think=100) for i in range(10)]
        core1 = [MemoryAccess.load(0x8000, think=1)]
        core0_phase1 = [MemoryAccess.load(0x9000, think=1)]
        core1_phase1 = [MemoryAccess.load(0xA000, think=1)]
        workload = WorkloadTrace(
            name="barrier",
            per_core=[core0 + core0_phase1, core1 + core1_phase1],
            phase_boundaries=[[len(core0), len(core1)]],
        )
        result = simulate(workload, config, "MESI")
        # Both cores finish after the barrier, so finish times are close.
        finish = [stats.finish_time for stats in result.core_stats]
        assert abs(finish[0] - finish[1]) < 0.5 * max(finish)

    def test_multiple_phases(self):
        config = small_test_config(2)
        per_core = [[], []]
        boundaries = []
        for phase in range(3):
            for core in range(2):
                per_core[core].append(MemoryAccess.load(0x1000 * (phase + 1) + 0x40 * core, think=5))
            boundaries.append([len(per_core[0]), len(per_core[1])])
        workload = WorkloadTrace(name="phases", per_core=per_core, phase_boundaries=boundaries)
        result = simulate(workload, config, "MESI")
        assert result.total_accesses == 6


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("protocol", ["MESI", "COUP", "RMO"])
    def test_shared_counter_final_value(self, protocol):
        config = small_test_config(4)
        style = {
            "MESI": UpdateStyle.ATOMIC,
            "COUP": UpdateStyle.COMMUTATIVE,
            "RMO": UpdateStyle.REMOTE,
        }[protocol]
        workload_gen = SharedCounterWorkload(updates_per_core=100, update_style=style)
        workload = workload_gen.generate(4)
        result = simulate(workload, config, protocol)
        assert result.final_values[workload_gen.counter_address] == 400

    def test_compare_protocols_runs_all(self):
        config = small_test_config(4)

        def factory(n_cores):
            return SharedCounterWorkload(updates_per_core=50).generate(n_cores)

        results = compare_protocols(factory, config, protocols=("MESI", "COUP", "RMO"))
        assert set(results) == {"MESI", "COUP", "RMO"}
        assert all(r.total_accesses > 0 for r in results.values())


class TestCoupBeatsBaselinesUnderContention:
    def test_coup_faster_than_mesi_on_contended_counter(self):
        config = table1_config(16)
        coup_wl = SharedCounterWorkload(updates_per_core=200, update_style=UpdateStyle.COMMUTATIVE)
        mesi_wl = SharedCounterWorkload(updates_per_core=200, update_style=UpdateStyle.ATOMIC)
        coup = simulate(coup_wl.generate(16), config, "COUP")
        mesi = simulate(mesi_wl.generate(16), config, "MESI")
        assert coup.speedup_over(mesi) > 2.0

    def test_coup_reduces_invalidations(self):
        config = table1_config(16)
        coup = simulate(
            SharedCounterWorkload(updates_per_core=200).generate(16), config, "COUP"
        )
        mesi = simulate(
            SharedCounterWorkload(
                updates_per_core=200, update_style=UpdateStyle.ATOMIC
            ).generate(16),
            config,
            "MESI",
        )
        assert coup.invalidations < mesi.invalidations

    def test_coup_matches_mesi_on_read_only_data(self):
        from repro.workloads import ReadOnlyWorkload

        config = small_test_config(4)
        workload = ReadOnlyWorkload(n_elements=64, reads_per_core=200)
        mesi = simulate(workload.generate(4), config, "MESI")
        coup = simulate(workload.generate(4), config, "COUP")
        assert coup.run_cycles == pytest.approx(mesi.run_cycles, rel=1e-6)


class TestStatisticsPlumbing:
    def test_amat_breakdown_components_sum_to_amat(self):
        config = table1_config(16)
        workload = SharedCounterWorkload(updates_per_core=100, update_style=UpdateStyle.ATOMIC)
        result = simulate(workload.generate(16), config, "MESI")
        breakdown = result.amat_breakdown()
        l1_latency = sum(s.latency.l1 for s in result.core_stats) / result.total_accesses
        assert sum(breakdown.values()) + l1_latency == pytest.approx(result.amat, rel=1e-6)

    def test_summary_fields(self):
        config = small_test_config(2)
        workload = SharedCounterWorkload(updates_per_core=10).generate(2)
        result = simulate(workload, config, "COUP")
        summary = result.summary()
        assert summary["protocol"] == "COUP"
        assert summary["n_cores"] == 2
        assert summary["run_cycles"] > 0


@pytest.mark.parametrize("kernel", ["scalar", "batch"])
class TestCoreSelectionTieBreak:
    """Equal core clocks must always resolve in ascending core-id order.

    Every heap entry is an explicit ``(clock, core_id)`` pair, so ties on
    the clock break deterministically by core id — in the scalar loop and
    in the batched kernel alike.  This pins the interleaving the sweep
    engine's shared traces (and the golden results) depend on.
    """

    N_CORES = 5
    ACCESSES_PER_CORE = 4

    def _symmetric_workload(self) -> WorkloadTrace:
        # Every core issues the same number of zero-think loads to lines
        # nobody else touches, with identical latencies: after each access
        # all clocks are equal, so every scheduling decision is a pure tie.
        per_core = [
            [
                MemoryAccess.load((core_id * 64 + i * self.N_CORES * 64) + 0x1000_0000)
                for i in range(self.ACCESSES_PER_CORE)
            ]
            for core_id in range(self.N_CORES)
        ]
        return WorkloadTrace(name="tie-break", per_core=per_core)

    def _recorded_order(self, trace, kernel, monkeypatch) -> list:
        monkeypatch.setenv("REPRO_SIM_KERNEL", kernel)
        config = small_test_config(self.N_CORES)
        engine = make_protocol("RMO", config)
        # Every access is a cold miss, so each one reaches resolve_slow.
        order = []
        original = engine.resolve_slow

        def recording_resolve_slow(core_id, *args):
            order.append(core_id)
            return original(core_id, *args)

        engine.resolve_slow = recording_resolve_slow
        MulticoreSimulator(config, engine).run(trace)
        return order

    def test_equal_clocks_pop_in_core_id_order(self, kernel, monkeypatch):
        order = self._recorded_order(self._symmetric_workload(), kernel, monkeypatch)
        expected = list(range(self.N_CORES)) * self.ACCESSES_PER_CORE
        assert order == expected

    def test_columnar_path_interleaves_identically(self, kernel, monkeypatch):
        from repro.sim.columnar import ColumnarTrace

        workload = self._symmetric_workload()
        object_order = self._recorded_order(workload, kernel, monkeypatch)
        columnar_order = self._recorded_order(
            ColumnarTrace.from_workload(workload), kernel, monkeypatch
        )
        assert columnar_order == object_order
        assert columnar_order == list(range(self.N_CORES)) * self.ACCESSES_PER_CORE


def test_kernel_selection_mismatch_raises_instead_of_hanging(monkeypatch):
    """A kernel whose event selection breaks ties against the scalar order
    cannot make progress; it must raise, naming the tied priorities.

    The selection is patched to prefer the *larger* core id on equal
    clocks, while the boundary walk still orders ties ascending, so every
    selection finds an earlier parked core and restarts without moving.
    A SIGALRM guard turns a regression back into a hang into a failure.
    """
    import signal

    from repro.sim.kernel import BatchedKernel

    def reversed_tie_break(self, runnable):
        best = None
        for core in runnable:
            if core.end_reason == "limit":
                continue
            if (
                best is None
                or core.slow_priority < best.slow_priority
                or (
                    core.slow_priority == best.slow_priority
                    and core.core_id > best.core_id
                )
            ):
                best = core
        return best

    def timed_out(signum, frame):
        raise AssertionError("the kernel hung instead of raising")

    monkeypatch.setattr(BatchedKernel, "_earliest_event", reversed_tie_break)
    monkeypatch.setenv("REPRO_SIM_KERNEL", "batch")
    tie_break = TestCoreSelectionTieBreak()
    trace = tie_break._symmetric_workload()
    config = small_test_config(tie_break.N_CORES)
    engine = make_protocol("RMO", config)
    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(30)
    try:
        with pytest.raises(RuntimeError, match="made no progress") as excinfo:
            MulticoreSimulator(config, engine).run(trace)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    # Every clock ties at the first event: core 4 was picked, core 0 is due.
    assert "picked core 4 at 0.0" in str(excinfo.value)
    assert "core 0 is parked earlier at 0.0" in str(excinfo.value)
