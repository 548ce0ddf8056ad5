"""Equivalence suite pinning the sweep-engine refactor.

Every experiment module was rewritten from hand-rolled loops onto the
declarative sweep engine with the contract that ``run(...)`` return values
(and therefore the printed tables, which are a pure function of the rows)
stay byte-identical.  This module keeps *frozen copies of the pre-refactor
implementations* — direct ``simulate(...)`` loops — and asserts exact
equality against the engine-backed ``run(...)`` for all 12 experiment ids.

It also pins the engine's sharing semantics: one materialized trace run
under several protocols (or machine configs) must produce bit-identical
:class:`SimulationResult` objects to regenerating the trace per run.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments import (
    ablation_hierarchical_reduction,
    ablation_interleaving,
    figure02_histogram_bins,
    figure08_verification,
    figure10_speedups,
    figure11_amat,
    figure12_privatization,
    figure13_refcount,
    sensitivity_reduction_unit,
    settings,
    table1_configuration,
    table2_benchmarks,
    traffic_reduction,
)
from repro.experiments.paper_workloads import PAPER_WORKLOAD_FACTORIES
from repro.sim.config import ReductionUnitConfig, table1_config
from repro.sim.simulator import compare_protocols, simulate
from repro.software.privatization import PrivatizationLevel
from repro.verification import verify_protocol
from repro.workloads import (
    CountMode,
    DelayedRefcountWorkload,
    HistogramWorkload,
    ImmediateRefcountWorkload,
    InterleavedReadUpdateWorkload,
    MultiCounterWorkload,
    RefcountScheme,
    UpdateStyle,
)


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    """Shrink every experiment so the whole module runs in seconds."""
    monkeypatch.setattr(settings, "_scale", 0.05)
    monkeypatch.setattr(settings, "_max_cores", 8)
    yield


# ---------------------------------------------------------------------------
# Frozen pre-refactor implementations (hand-rolled simulate() loops)
# ---------------------------------------------------------------------------


def legacy_figure10_run_benchmark(name, core_counts):
    factory = PAPER_WORKLOAD_FACTORIES[name]
    core_counts = list(core_counts)
    if 1 not in core_counts:
        core_counts = [1] + core_counts
    baseline_workload = factory(UpdateStyle.ATOMIC).generate(1)
    baseline = simulate(baseline_workload, table1_config(1), "MESI", track_values=False)
    rows = []
    for n_cores in core_counts:
        config = table1_config(n_cores)
        mesi_trace = factory(UpdateStyle.ATOMIC).generate(n_cores)
        coup_trace = factory(UpdateStyle.COMMUTATIVE).generate(n_cores)
        mesi = simulate(mesi_trace, config, "MESI", track_values=False)
        coup = simulate(coup_trace, config, "COUP", track_values=False)
        rows.append(
            {
                "benchmark": name,
                "n_cores": n_cores,
                "mesi_speedup": baseline.run_cycles / mesi.run_cycles,
                "coup_speedup": baseline.run_cycles / coup.run_cycles,
                "coup_over_mesi": mesi.run_cycles / coup.run_cycles,
            }
        )
    return rows


def legacy_figure11_run_benchmark(name, core_points):
    factory = PAPER_WORKLOAD_FACTORIES[name]
    rows = []
    normalisation = None
    for n_cores in core_points:
        config = table1_config(n_cores)
        for protocol, style in (("COUP", UpdateStyle.COMMUTATIVE), ("MESI", UpdateStyle.ATOMIC)):
            trace = factory(style).generate(n_cores)
            result = simulate(trace, config, protocol, track_values=False)
            row = {
                "benchmark": name,
                "protocol": protocol,
                "n_cores": n_cores,
                "amat": result.amat,
            }
            row.update(result.amat_breakdown())
            rows.append(row)
            if normalisation is None and protocol == "COUP":
                normalisation = result.amat
    normalisation = normalisation or 1.0
    for row in rows:
        row["relative_amat"] = row["amat"] / normalisation if normalisation else 0.0
    return rows


def legacy_figure2_run(bin_counts, n_cores, n_items):
    n_cores = min(n_cores, settings.max_cores())
    config = table1_config(n_cores)
    rows = []
    for n_bins in bin_counts:
        coup_workload = HistogramWorkload(
            n_bins=n_bins, n_items=n_items, update_style=UpdateStyle.COMMUTATIVE
        )
        atomic_workload = HistogramWorkload(
            n_bins=n_bins, n_items=n_items, update_style=UpdateStyle.ATOMIC
        )
        privatized = HistogramWorkload(
            n_bins=n_bins, n_items=n_items, update_style=UpdateStyle.ATOMIC
        ).generate_privatized(n_cores, level=PrivatizationLevel.CORE)
        coup = simulate(coup_workload.generate(n_cores), config, "COUP", track_values=False)
        atomics = simulate(atomic_workload.generate(n_cores), config, "MESI", track_values=False)
        privatization = simulate(privatized, config, "MESI", track_values=False)
        rows.append(
            {
                "n_bins": n_bins,
                "coup_cycles": coup.run_cycles,
                "atomics_cycles": atomics.run_cycles,
                "privatization_cycles": privatization.run_cycles,
            }
        )
    baseline = rows[0]["coup_cycles"]
    for row in rows:
        row["coup_rel"] = baseline / row["coup_cycles"]
        row["atomics_rel"] = baseline / row["atomics_cycles"]
        row["privatization_rel"] = baseline / row["privatization_cycles"]
    return rows


def legacy_figure12_run_bin_count(n_bins, core_counts, n_items):
    core_counts = list(core_counts)
    if 1 not in core_counts:
        core_counts = [1] + core_counts

    def make_workload():
        return HistogramWorkload(
            n_bins=n_bins, n_items=n_items, update_style=UpdateStyle.COMMUTATIVE
        )

    baseline = simulate(make_workload().generate(1), table1_config(1), "MESI", track_values=False)
    rows = []
    for n_cores in core_counts:
        config = table1_config(n_cores)
        coup = simulate(make_workload().generate(n_cores), config, "COUP", track_values=False)
        core_priv = simulate(
            make_workload().generate_privatized(n_cores, level=PrivatizationLevel.CORE),
            config,
            "MESI",
            track_values=False,
        )
        socket_priv = simulate(
            make_workload().generate_privatized(
                n_cores,
                level=PrivatizationLevel.SOCKET,
                cores_per_socket=config.cores_per_chip,
            ),
            config,
            "MESI",
            track_values=False,
        )
        rows.append(
            {
                "n_bins": n_bins,
                "n_cores": n_cores,
                "coup_speedup": baseline.run_cycles / coup.run_cycles,
                "core_privatization_speedup": baseline.run_cycles / core_priv.run_cycles,
                "socket_privatization_speedup": baseline.run_cycles / socket_priv.run_cycles,
            }
        )
    return rows


def legacy_figure13_run_immediate(count_mode, core_counts, n_counters, updates_per_thread):
    core_counts = list(core_counts)
    if 1 not in core_counts:
        core_counts = [1] + core_counts

    def workload(scheme):
        return ImmediateRefcountWorkload(
            n_counters=n_counters,
            updates_per_thread=updates_per_thread,
            scheme=scheme,
            count_mode=count_mode,
        )

    baseline = simulate(
        workload(RefcountScheme.XADD).generate(1), table1_config(1), "MESI", track_values=False
    )
    rows = []
    for n_cores in core_counts:
        config = table1_config(n_cores)
        coup = simulate(
            workload(RefcountScheme.COUP).generate(n_cores), config, "COUP", track_values=False
        )
        xadd = simulate(
            workload(RefcountScheme.XADD).generate(n_cores), config, "MESI", track_values=False
        )
        snzi = simulate(
            workload(RefcountScheme.SNZI).generate(n_cores), config, "MESI", track_values=False
        )
        rows.append(
            {
                "count_mode": count_mode.value,
                "n_cores": n_cores,
                "coup_speedup": n_cores * baseline.run_cycles / coup.run_cycles,
                "xadd_speedup": n_cores * baseline.run_cycles / xadd.run_cycles,
                "snzi_speedup": n_cores * baseline.run_cycles / snzi.run_cycles,
            }
        )
    return rows


def legacy_figure13_run_delayed(updates_per_epoch_values, n_cores, n_counters):
    config = table1_config(n_cores)
    rows = []
    for updates_per_epoch in updates_per_epoch_values:
        coup_workload = DelayedRefcountWorkload(
            n_counters=n_counters,
            updates_per_epoch=updates_per_epoch,
            scheme=RefcountScheme.COUP,
        )
        refcache_workload = DelayedRefcountWorkload(
            n_counters=n_counters,
            updates_per_epoch=updates_per_epoch,
            scheme=RefcountScheme.REFCACHE,
        )
        coup = simulate(coup_workload.generate(n_cores), config, "COUP", track_values=False)
        refcache = simulate(
            refcache_workload.generate(n_cores), config, "MESI", track_values=False
        )
        total_updates = updates_per_epoch * coup_workload.n_epochs * n_cores
        rows.append(
            {
                "updates_per_epoch": updates_per_epoch,
                "coup_performance": 1000.0 * total_updates / coup.run_cycles,
                "refcache_performance": 1000.0 * total_updates / refcache.run_cycles,
                "coup_over_refcache": refcache.run_cycles / coup.run_cycles,
            }
        )
    return rows


def legacy_table2_run():
    rows = []
    config = table1_config(1)
    for name, factory in PAPER_WORKLOAD_FACTORIES.items():
        workload = factory(UpdateStyle.COMMUTATIVE)
        stats = workload.stats(1)
        sequential = simulate(workload.generate(1), config, "MESI", track_values=False)
        rows.append(
            {
                "benchmark": name,
                "comm_ops": workload.comm_op_label,
                "accesses": stats.total_accesses,
                "instructions": stats.total_instructions,
                "comm_op_fraction": stats.comm_op_fraction,
                "seq_run_kcycles": sequential.run_cycles / 1000.0,
            }
        )
    return rows


def legacy_traffic_run(n_cores):
    config = table1_config(n_cores)
    rows = []
    for name, factory in PAPER_WORKLOAD_FACTORIES.items():
        mesi = simulate(
            factory(UpdateStyle.ATOMIC).generate(n_cores), config, "MESI", track_values=False
        )
        coup = simulate(
            factory(UpdateStyle.COMMUTATIVE).generate(n_cores),
            config,
            "COUP",
            track_values=False,
        )
        rows.append(
            {
                "benchmark": name,
                "n_cores": n_cores,
                "mesi_offchip_bytes": mesi.offchip_bytes,
                "coup_offchip_bytes": coup.offchip_bytes,
                "traffic_reduction": mesi.offchip_bytes / max(1, coup.offchip_bytes),
                "mesi_invalidations": mesi.invalidations,
                "coup_invalidations": coup.invalidations,
            }
        )
    return rows


def legacy_sensitivity_run(n_cores):
    fast_config = table1_config(n_cores, reduction_unit=ReductionUnitConfig.fast())
    slow_config = table1_config(n_cores, reduction_unit=ReductionUnitConfig.slow())
    rows = []
    for name, factory in PAPER_WORKLOAD_FACTORIES.items():
        fast = simulate(
            factory(UpdateStyle.COMMUTATIVE).generate(n_cores),
            fast_config,
            "COUP",
            track_values=False,
        )
        slow = simulate(
            factory(UpdateStyle.COMMUTATIVE).generate(n_cores),
            slow_config,
            "COUP",
            track_values=False,
        )
        degradation = slow.run_cycles / fast.run_cycles - 1.0
        rows.append(
            {
                "benchmark": name,
                "n_cores": n_cores,
                "fast_alu_cycles": fast.run_cycles,
                "slow_alu_cycles": slow.run_cycles,
                "degradation_pct": 100.0 * degradation,
            }
        )
    return rows


def legacy_ablation_interleaving_run(updates_per_read_values, n_cores, n_elements, rounds):
    config = table1_config(n_cores)
    rows = []
    for updates_per_read in updates_per_read_values:
        def workload(style):
            return InterleavedReadUpdateWorkload(
                n_elements=n_elements,
                updates_per_read=updates_per_read,
                rounds=rounds,
                update_style=style,
            )

        mesi = simulate(
            workload(UpdateStyle.ATOMIC).generate(n_cores), config, "MESI", track_values=False
        )
        coup = simulate(
            workload(UpdateStyle.COMMUTATIVE).generate(n_cores), config, "COUP", track_values=False
        )
        rmo = simulate(
            workload(UpdateStyle.REMOTE).generate(n_cores), config, "RMO", track_values=False
        )
        rows.append(
            {
                "updates_per_read": updates_per_read,
                "mesi_cycles": mesi.run_cycles,
                "coup_cycles": coup.run_cycles,
                "rmo_cycles": rmo.run_cycles,
                "coup_over_mesi": mesi.run_cycles / coup.run_cycles,
                "coup_over_rmo": rmo.run_cycles / coup.run_cycles,
            }
        )
    return rows


def legacy_ablation_hierarchical_simulated(n_cores, socket_widths, n_counters, updates_per_core):
    rows = []
    for width in socket_widths:
        if width > n_cores:
            continue
        config = dataclasses.replace(table1_config(n_cores), cores_per_chip=width)
        workload = MultiCounterWorkload(
            n_counters=n_counters,
            updates_per_core=updates_per_core,
            hot_fraction=0.3,
            update_style=UpdateStyle.COMMUTATIVE,
        )
        result = simulate(workload.generate(n_cores), config, "COUP", track_values=False)
        rows.append(
            {
                "n_cores": n_cores,
                "cores_per_socket": width,
                "n_sockets": config.n_chips,
                "run_cycles": result.run_cycles,
                "amat": result.amat,
                "full_reductions": result.reductions,
            }
        )
    return rows


def legacy_figure8_run(protocols, core_counts, op_counts, max_states):
    rows = []
    for protocol in protocols:
        for n_cores in core_counts:
            for n_ops in op_counts:
                if protocol.upper() == "MESI" and n_ops != op_counts[0]:
                    continue
                result = verify_protocol(
                    protocol, n_cores, n_ops=n_ops, max_states=max_states
                )
                rows.append(
                    {
                        "protocol": protocol,
                        "n_cores": n_cores,
                        "n_ops": n_ops if protocol.upper() != "MESI" else 0,
                        "states": result.n_states,
                        "transitions": result.n_transitions,
                        "time_s": result.elapsed_seconds,
                        "verified": result.verified,
                        "completed": result.completed,
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# Pinning tests: engine-backed run(...) == frozen legacy implementation
# ---------------------------------------------------------------------------


class TestRunEquivalence:
    def test_figure10(self):
        legacy = legacy_figure10_run_benchmark("hist", [4])
        assert figure10_speedups.run_benchmark("hist", [4]) == legacy

    def test_duplicate_core_counts_produce_duplicate_rows(self):
        """Duplicated sweep values stay legal, as in the pre-engine loops."""
        legacy = legacy_figure10_run_benchmark("hist", [4, 4])
        assert figure10_speedups.run_benchmark("hist", [4, 4]) == legacy
        assert figure13_refcount.run_immediate(
            CountMode.LOW, [4, 4], n_counters=64, updates_per_thread=40
        ) == legacy_figure13_run_immediate(
            CountMode.LOW, [4, 4], n_counters=64, updates_per_thread=40
        )

    def test_figure10_run_covers_all_benchmarks(self):
        results = figure10_speedups.run(benchmarks=["spmv", "bfs"], core_counts=[2])
        assert results == {
            "spmv": legacy_figure10_run_benchmark("spmv", [2]),
            "bfs": legacy_figure10_run_benchmark("bfs", [2]),
        }

    def test_figure11(self):
        legacy = legacy_figure11_run_benchmark("hist", [4])
        assert figure11_amat.run_benchmark("hist", [4]) == legacy

    def test_figure2(self):
        legacy = legacy_figure2_run((32, 128), n_cores=8, n_items=800)
        assert figure02_histogram_bins.run((32, 128), n_cores=8, n_items=800) == legacy

    def test_figure12(self):
        legacy = legacy_figure12_run_bin_count(512, [4], n_items=800)
        assert figure12_privatization.run_bin_count(512, [4], n_items=800) == legacy

    def test_figure13_immediate(self):
        legacy = legacy_figure13_run_immediate(
            CountMode.LOW, [4], n_counters=64, updates_per_thread=40
        )
        assert (
            figure13_refcount.run_immediate(
                CountMode.LOW, [4], n_counters=64, updates_per_thread=40
            )
            == legacy
        )

    def test_figure13_delayed(self):
        legacy = legacy_figure13_run_delayed((5, 20), n_cores=4, n_counters=128)
        assert (
            figure13_refcount.run_delayed((5, 20), n_cores=4, n_counters=128) == legacy
        )

    def test_table1(self):
        assert table1_configuration.run(n_cores=128) == table1_configuration.rows_for(
            table1_config(128)
        )

    def test_table2(self):
        assert table2_benchmarks.run() == legacy_table2_run()

    def test_traffic(self):
        assert traffic_reduction.run(n_cores=4) == legacy_traffic_run(4)

    def test_sensitivity(self):
        assert sensitivity_reduction_unit.run(n_cores=4) == legacy_sensitivity_run(4)

    def test_ablation_interleaving(self):
        legacy = legacy_ablation_interleaving_run((0, 2), n_cores=4, n_elements=16, rounds=10)
        assert (
            ablation_interleaving.run((0, 2), n_cores=4, rounds=10) == legacy
        )

    def test_ablation_hierarchical(self):
        results = ablation_hierarchical_reduction.run(n_cores=8)
        assert results["analytic"] == ablation_hierarchical_reduction.analytic_rows()
        assert results["simulated"] == legacy_ablation_hierarchical_simulated(
            8, (4, 8, 16), n_counters=16, updates_per_core=settings.scaled(300)
        )

    def test_figure8(self):
        legacy = legacy_figure8_run(("MESI", "MEUSI"), (1,), (1, 2), max_states=50_000)
        rows = figure08_verification.run(("MESI", "MEUSI"), (1,), (1, 2), max_states=50_000)
        # Wall-clock varies run to run; everything else must match exactly.
        strip = lambda row: {k: v for k, v in row.items() if k != "time_s"}  # noqa: E731
        assert [strip(row) for row in rows] == [strip(row) for row in legacy]


class TestPrintedTables:
    def test_main_output_is_pure_function_of_rows(self, capsys):
        """render() must print exactly what the pre-refactor main() printed."""
        from repro.experiments.tables import format_table

        rows = traffic_reduction.run(n_cores=2)
        capsys.readouterr()
        traffic_reduction.render(rows)
        printed = capsys.readouterr().out
        expected = (
            format_table(
                rows,
                columns=[
                    "benchmark",
                    "n_cores",
                    "mesi_offchip_bytes",
                    "coup_offchip_bytes",
                    "traffic_reduction",
                ],
                title="Sec. 5.2: off-chip traffic, MESI vs. COUP (reduction factor, higher is better)",
            )
            + "\n"
        )
        assert printed == expected

    def test_main_returns_run_and_prints(self, capsys):
        rows = figure02_histogram_bins.run((32,), n_cores=4, n_items=400)
        capsys.readouterr()
        # main() uses default arguments; compare against a fresh default run.
        returned = figure02_histogram_bins.main()
        printed = capsys.readouterr().out
        assert "Figure 2" in printed
        assert returned == figure02_histogram_bins.run()
        assert rows  # tiny-sweep sanity


# ---------------------------------------------------------------------------
# Trace sharing equivalence (acceptance criterion)
# ---------------------------------------------------------------------------


class TestTraceSharing:
    def test_shared_trace_bit_identical_across_protocols(self):
        """One materialized trace under N protocols == N regenerated traces."""
        from repro.sim.config import small_test_config

        config = small_test_config(4)

        def factory(n_cores):
            return MultiCounterWorkload(
                n_counters=32, updates_per_core=120, update_style=UpdateStyle.COMMUTATIVE
            ).generate(n_cores)

        shared = compare_protocols(
            factory, config, protocols=("MESI", "COUP", "RMO"), track_values=True
        )
        regenerated = {
            protocol: simulate(factory(4), config, protocol, track_values=True)
            for protocol in ("MESI", "COUP", "RMO")
        }
        assert shared == regenerated

    def test_simulating_a_trace_does_not_mutate_it(self):
        """Re-running one trace object gives the same result as a fresh trace."""
        workload = HistogramWorkload(
            n_bins=64, n_items=600, update_style=UpdateStyle.COMMUTATIVE
        )
        trace = workload.generate(4)
        config = table1_config(4)
        first = simulate(trace, config, "COUP", track_values=False)
        second = simulate(trace, config, "COUP", track_values=False)
        fresh = simulate(
            HistogramWorkload(
                n_bins=64, n_items=600, update_style=UpdateStyle.COMMUTATIVE
            ).generate(4),
            config,
            "COUP",
            track_values=False,
        )
        assert first == second == fresh
