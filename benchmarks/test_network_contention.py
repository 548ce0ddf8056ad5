"""Benchmark: interconnect subsystem overhead and contention-model cost.

The topology/contention subsystem replaced the fixed off-chip latency
constant with per-(src, dst) table lookups on the protocol slow path, plus an
optional epoch queueing model.  This benchmark guards the bargain:

* **disabled overhead** — a dancehall/no-contention run vs. the legacy
  constant path (reconstructed by rebinding the per-pair hooks to the old
  fixed round-trip constant).  Results must be bit-identical and the
  wall-clock overhead must stay under 5%.
* **enabled cost** — the same run with the epoch contention model charging
  surcharges, recorded (not gated) so the trajectory shows what turning the
  model on costs.

Timings use the **minimum** over repeats: both paths execute the same
simulation, so min-of-N is the noise-robust estimator of their true cost
(medians of near-identical runs swing more on shared CI machines).  The
trajectory lands in ``results/benchmarks/BENCH_network.json``.
"""

from __future__ import annotations

from datetime import datetime, timezone

from conftest import BENCH_REPEATS, append_trajectory, interleaved_best_times, run_once, trajectory_path

from repro.experiments import settings
from repro.experiments.paper_workloads import make_hist
from repro.sim.config import TopologyConfig, table1_config
from repro.sim.simulator import MulticoreSimulator, make_protocol
from repro.workloads import UpdateStyle

TRAJECTORY_PATH = trajectory_path("BENCH_network.json")

#: Wall-clock repeats per mode; the minimum is recorded.
REPEATS = max(BENCH_REPEATS, 5)

#: Gate on the disabled-path overhead vs. the legacy constant path.
MAX_DISABLED_OVERHEAD_PCT = 5.0


def _simulate(trace, config, *, legacy: bool = False):
    """One MESI run; ``legacy`` rebinds every per-pair hook to the old constant."""
    engine = make_protocol("MESI", config, track_values=False)
    if legacy:
        round_trip = engine._offchip_round_trip
        constant_l4 = lambda chip, l4, line_addr, now, _rt=round_trip: _rt  # noqa: E731
        engine._l4_rt = constant_l4
        engine._l4_control_rt = constant_l4
        engine._l4_partial = constant_l4
        engine._chip_rt = lambda src, dst, now, _rt=round_trip: _rt
    return MulticoreSimulator(config, engine, track_values=False).run(trace)


def test_network_contention_overhead(benchmark):
    n_cores = min(16, settings.max_cores())
    config = table1_config(n_cores)
    contended = table1_config(
        n_cores, topology=TopologyConfig(name="dancehall", contention=True)
    )
    trace = make_hist(UpdateStyle.COMMUTATIVE).generate(n_cores)

    timings = interleaved_best_times(
        [
            ("legacy", lambda: _simulate(trace, config, legacy=True)),
            ("disabled", lambda: _simulate(trace, config)),
            ("enabled", lambda: _simulate(trace, contended)),
        ],
        repeats=REPEATS,
    )
    legacy_s, legacy_times, legacy_result = timings["legacy"]
    disabled_s, disabled_times, disabled_result = timings["disabled"]
    enabled_s, enabled_times, enabled_result = timings["enabled"]
    run_once(benchmark, _simulate, trace, config)

    # The disabled subsystem must be invisible in the results.
    assert disabled_result == legacy_result

    overhead_disabled_pct = (disabled_s / legacy_s - 1.0) * 100.0
    overhead_enabled_pct = (enabled_s / legacy_s - 1.0) * 100.0

    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "scale": settings.scale(),
        "max_cores": settings.max_cores(),
        "n_cores": n_cores,
        "repeats": REPEATS,
        "legacy_s": round(legacy_s, 4),
        "disabled_s": round(disabled_s, 4),
        "enabled_s": round(enabled_s, 4),
        "legacy_times_s": [round(t, 4) for t in legacy_times],
        "disabled_times_s": [round(t, 4) for t in disabled_times],
        "enabled_times_s": [round(t, 4) for t in enabled_times],
        "overhead_disabled_pct": round(overhead_disabled_pct, 2),
        "overhead_enabled_pct": round(overhead_enabled_pct, 2),
        "contention_surcharge_cycles": (
            enabled_result.link_stats.surcharge_cycles
            if enabled_result.link_stats
            else 0.0
        ),
        "max_link_utilization": (
            enabled_result.link_stats.max_link_utilization
            if enabled_result.link_stats
            else 0.0
        ),
    }
    append_trajectory(TRAJECTORY_PATH, entry)

    assert overhead_disabled_pct < MAX_DISABLED_OVERHEAD_PCT, (
        f"disabled contention model costs {overhead_disabled_pct:.2f}% "
        f"(limit {MAX_DISABLED_OVERHEAD_PCT}%): {entry}"
    )
