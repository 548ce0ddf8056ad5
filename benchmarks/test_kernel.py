"""Benchmark: batched simulation kernel vs. the scalar columnar loop.

Two measurements, both pinned bit-identical and recorded in
``results/benchmarks/BENCH_kernel.json``:

* **Hit-run microbenchmark** — workloads that live in the kernel's regime
  (long private-hit runs: local commutative updates under COUP, read-only
  streams under MESI).  This is where vectorized hit-run scanning pays;
  the suite gates a >=3x geomean wall-clock speedup of the default ``auto``
  kernel over the forced-scalar loop.
* **Paper workload grid** — the five Table 2 benchmarks under MESI (atomic)
  and COUP (commutative).  These are slow-path-dominated, which is exactly
  the regime group retirement targets: the kernel merges independent slow
  accesses fleet-wide in canonical ``(clock, core id)`` order instead of
  paying per-event dispatch.  The gates are (a) a grid-wide geomean
  speedup of ``auto`` over forced-scalar of at least ``MIN_GRID_GEOMEAN``,
  and (b) a per-point regression floor ``MIN_POINT_SPEEDUP``: on
  conflict-dense points where the merge's entry gate declines (cross-op
  stretches, reduction triggers), ``auto`` bails out early and must track
  the scalar loop.  Every point is always asserted bit-identical.

Timings use min-of-N over interleaved rounds (the two modes execute the
same simulation, so min is the noise-robust estimator of true cost).
Single-point wall-clock on shared CI hosts still jitters by several
percent between rounds, which is why the per-point floor is looser than
the geomean gate and skips points below ``MIN_GATED_POINT_SECONDS``: the
geomean averages the jitter away, a per-point assertion cannot.
"""

from __future__ import annotations

import os
import statistics
from datetime import datetime, timezone

from conftest import BENCH_REPEATS, append_trajectory, interleaved_best_times, run_once, trajectory_path

from repro.experiments import settings
from repro.experiments.paper_workloads import PAPER_WORKLOAD_FACTORIES
from repro.sim.config import table1_config
from repro.sim.simulator import simulate
from repro.workloads import UpdateStyle
from repro.workloads.synthetic import (
    MultiCounterWorkload,
    ReadOnlyWorkload,
    SharedCounterWorkload,
)

TRAJECTORY_PATH = trajectory_path("BENCH_kernel.json")

REPEATS = max(BENCH_REPEATS, 3)

#: Geomean gate on the hit-run microbenchmark (ISSUE 5 acceptance).
MIN_MICRO_SPEEDUP = 3.0

#: Geomean gate on the paper grid: group retirement must keep ``auto``
#: ahead of the scalar loop across the ten (workload, protocol) points.
#: Measured headroom at scale 1.0 on the reference host is ~1.15-1.25x.
MIN_GRID_GEOMEAN = 1.02

#: Per-point regression floor: no grid point may lose more than this to
#: the scalar loop.  Points where the merge's entry gate declines cost one
#: probed kernel stint (a handful of slow events) plus a few self-limited
#: merge attempts; the rest is host timing jitter.
MIN_POINT_SPEEDUP = 0.85

#: Points whose forced-scalar run is shorter than this are recorded but
#: exempt from the per-point floor: min-of-N cannot average enough work on
#: a ~0.1 s point for an 0.85x assertion to separate regression from
#: jitter.  The geomean gate still includes every point.
MIN_GATED_POINT_SECONDS = 0.2

#: Timing gates need enough simulated work to measure: the bail-out
#: probation is a fixed few milliseconds per run, so on sub-second totals
#: (tiny REPRO_SCALE smoke runs) the percentages are dominated by noise and
#: fixed costs.  Below these floors the gates are recorded but not asserted.
MIN_GATED_GRID_SECONDS = 2.0
MIN_GATED_MICRO_SECONDS = 0.2


def _mode_runner(trace, config, protocol, mode):
    def run():
        previous = os.environ.get("REPRO_SIM_KERNEL")
        os.environ["REPRO_SIM_KERNEL"] = mode
        try:
            return simulate(trace, config, protocol, track_values=False)
        finally:
            if previous is None:
                os.environ.pop("REPRO_SIM_KERNEL", None)
            else:
                os.environ["REPRO_SIM_KERNEL"] = previous

    return run


def _time_point(trace, config, protocol):
    """(scalar_s, auto_s, identical) for one simulation point."""
    timings = interleaved_best_times(
        [
            ("scalar", _mode_runner(trace, config, protocol, "scalar")),
            ("auto", _mode_runner(trace, config, protocol, "auto")),
        ],
        repeats=REPEATS,
    )
    scalar_s, _, scalar_result = timings["scalar"]
    auto_s, _, auto_result = timings["auto"]
    identical = scalar_result.to_jsonable() == auto_result.to_jsonable()
    return scalar_s, auto_s, identical


def _micro_workloads():
    updates = settings.scaled(40_000)
    return (
        (
            "shared-counter",
            "COUP",
            SharedCounterWorkload(
                updates_per_core=updates, update_style=UpdateStyle.COMMUTATIVE
            ),
        ),
        (
            "multi-counter",
            "COUP",
            MultiCounterWorkload(
                n_counters=64, updates_per_core=updates, hot_fraction=0.3
            ),
        ),
        ("read-only", "MESI", ReadOnlyWorkload(reads_per_core=updates)),
    )


def test_kernel_speedup_and_fallback(benchmark):
    n_cores = min(16, settings.max_cores())
    config = table1_config(n_cores)

    micro_rows = []
    representative_trace = None
    for name, protocol, workload in _micro_workloads():
        trace = workload.generate_columnar(n_cores)
        if representative_trace is None:
            representative_trace = trace
        scalar_s, auto_s, identical = _time_point(trace, config, protocol)
        assert identical, f"micro {name}/{protocol}: batched result diverged"
        micro_rows.append(
            {
                "workload": name,
                "protocol": protocol,
                "scalar_s": round(scalar_s, 4),
                "auto_s": round(auto_s, 4),
                "speedup": round(scalar_s / auto_s, 3),
            }
        )
    micro_geomean = statistics.geometric_mean(row["speedup"] for row in micro_rows)

    grid_rows = []
    grid_scalar_total = 0.0
    grid_auto_total = 0.0
    for name, factory in PAPER_WORKLOAD_FACTORIES.items():
        for protocol, style in (
            ("MESI", UpdateStyle.ATOMIC),
            ("COUP", UpdateStyle.COMMUTATIVE),
        ):
            trace = factory(style).generate_columnar(n_cores)
            scalar_s, auto_s, identical = _time_point(trace, config, protocol)
            assert identical, f"grid {name}/{protocol}: batched result diverged"
            grid_scalar_total += scalar_s
            grid_auto_total += auto_s
            grid_rows.append(
                {
                    "workload": name,
                    "protocol": protocol,
                    "scalar_s": round(scalar_s, 4),
                    "auto_s": round(auto_s, 4),
                    "speedup": round(scalar_s / auto_s, 3),
                }
            )
    grid_geomean = statistics.geometric_mean(row["speedup"] for row in grid_rows)
    grid_min_speedup = min(row["speedup"] for row in grid_rows)
    floor_rows = [
        row for row in grid_rows if row["scalar_s"] >= MIN_GATED_POINT_SECONDS
    ]
    grid_min_gated_speedup = (
        min(row["speedup"] for row in floor_rows) if floor_rows else None
    )
    fallback_overhead_pct = (grid_auto_total / grid_scalar_total - 1.0) * 100.0

    # One representative run under pytest-benchmark for the report.
    run_once(benchmark, _mode_runner(representative_trace, config, "COUP", "auto"))

    micro_gated = all(row["scalar_s"] >= MIN_GATED_MICRO_SECONDS for row in micro_rows)
    grid_gated = grid_scalar_total >= MIN_GATED_GRID_SECONDS
    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "scale": settings.scale(),
        "max_cores": settings.max_cores(),
        "n_cores": n_cores,
        "repeats": REPEATS,
        "micro": micro_rows,
        "micro_geomean_speedup": round(micro_geomean, 3),
        "micro_gated": micro_gated,
        "grid": grid_rows,
        "grid_geomean_speedup": round(grid_geomean, 3),
        "grid_min_speedup": round(grid_min_speedup, 3),
        "grid_min_gated_speedup": (
            round(grid_min_gated_speedup, 3)
            if grid_min_gated_speedup is not None
            else None
        ),
        "grid_scalar_total_s": round(grid_scalar_total, 3),
        "grid_fallback_overhead_pct": round(fallback_overhead_pct, 2),
        "grid_gated": grid_gated,
    }
    append_trajectory(TRAJECTORY_PATH, entry)

    if micro_gated:
        assert micro_geomean >= MIN_MICRO_SPEEDUP, (
            f"hit-run kernel speedup geomean {micro_geomean:.2f}x "
            f"below the {MIN_MICRO_SPEEDUP}x gate: {entry}"
        )
    if grid_gated:
        assert grid_geomean >= MIN_GRID_GEOMEAN, (
            f"group-retirement grid speedup geomean {grid_geomean:.2f}x "
            f"below the {MIN_GRID_GEOMEAN}x gate: {entry}"
        )
        if grid_min_gated_speedup is not None:
            assert grid_min_gated_speedup >= MIN_POINT_SPEEDUP, (
                f"worst timeable grid point at {grid_min_gated_speedup:.2f}x "
                f"is below the {MIN_POINT_SPEEDUP}x regression floor: {entry}"
            )
