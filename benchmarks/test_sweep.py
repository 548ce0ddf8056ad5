"""Benchmark: multi-protocol sweep wall-clock with trace reuse on and off.

The sweep engine materializes each workload trace once and shares it across
protocols; this benchmark times an (MESI, COUP, RMO) sweep over the ``hist``
benchmark both ways and records the wall-clock trajectory into
``results/benchmarks/BENCH_sweep.json`` so the trace-reuse win is tracked across
revisions.  Each mode is timed over ``REPEATS`` repeats and the **median**
is recorded — single-shot numbers on shared CI machines swing by tens of
percent, which made the trajectory useless for spotting regressions.
Results are asserted bit-identical between the two modes — the speedup must
never come at the cost of fidelity.
"""

from __future__ import annotations

from datetime import datetime, timezone

from conftest import BENCH_REPEATS as REPEATS
from conftest import append_trajectory, median_time, run_once, trajectory_path

from repro.experiments import settings
from repro.experiments.paper_workloads import make_hist
from repro.sim.config import table1_config
from repro.sim.simulator import compare_protocols, simulate
from repro.workloads import UpdateStyle

#: Trajectory file recording one entry per benchmark run.
TRAJECTORY_PATH = trajectory_path("BENCH_sweep.json")

PROTOCOLS = ("MESI", "COUP", "RMO")


def _factory(n):
    return make_hist(UpdateStyle.COMMUTATIVE).generate(n)


def _config():
    return table1_config(min(16, settings.max_cores()))


def _sweep():
    """One multi-protocol sweep over the hist benchmark, sharing the trace."""
    return compare_protocols(_factory, _config(), protocols=PROTOCOLS)


def _regenerated_sweep():
    """The same sweep, generating the trace afresh for every protocol."""
    config = _config()
    return {
        protocol: simulate(_factory(config.n_cores), config, protocol, track_values=False)
        for protocol in PROTOCOLS
    }


def test_sweep_trace_reuse(benchmark):
    """Time both sweep modes over repeats; record the medians."""
    regenerated_s, regenerated_times, regenerated = median_time(_regenerated_sweep)
    shared_s, shared_times, _ = median_time(_sweep)
    shared = run_once(benchmark, _sweep)

    # Sharing must be invisible in the results.
    assert shared == regenerated

    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "scale": settings.scale(),
        "max_cores": settings.max_cores(),
        "protocols": list(PROTOCOLS),
        "repeats": REPEATS,
        "shared_trace_s": round(shared_s, 4),
        "regenerated_trace_s": round(regenerated_s, 4),
        "shared_trace_all_s": [round(value, 4) for value in shared_times],
        "regenerated_trace_all_s": [round(value, 4) for value in regenerated_times],
        "trace_reuse_speedup": round(regenerated_s / shared_s, 3) if shared_s > 0 else None,
    }
    append_trajectory(TRAJECTORY_PATH, entry)
    benchmark.extra_info["trace_reuse"] = entry
