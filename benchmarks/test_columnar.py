"""Benchmark: columnar trace generation speed, cache size, and fidelity.

Three claims of the columnar trace format are measured and tracked in
``results/benchmarks/BENCH_columnar.json``:

* **Generation speed** — every paper workload's vectorized
  ``generate_columnar`` against the object-form ``generate``, median of
  ``REPEATS`` timed repeats each (fresh workload instances per repeat, so
  address-map state never leaks between representations).  The headline
  ``generation_speedup`` is the geometric mean of the per-workload
  speedups (the standard aggregation for speedup ratios, and what the
  paper's own figures use); ``generation_speedup_total`` additionally
  reports aggregate object time over aggregate columnar time, which is
  dominated by the graph workloads' shared RNG structure generation
  (identical on both paths by construction — the draw order is pinned).
  The target is >= 3x.
* **Cached-trace size** — the packed in-memory footprint against the
  object form's measured heap footprint, and the compressed ``.npz`` file
  against a pickled object trace (what a cache or worker hand-off would
  otherwise hold).  The target is >= 5x.
* **Fidelity** — simulating the columnar form must produce bit-identical
  results to the object form for every protocol on the smoke grid.  This
  is a hard assertion: the benchmark *fails* on any divergence, which is
  what the CI benchmark lane enforces.
"""

from __future__ import annotations

import os
import pickle
import statistics
import tracemalloc
from datetime import datetime, timezone

from conftest import BENCH_REPEATS as REPEATS
from conftest import append_trajectory, median_time, run_once, trajectory_path

from repro.experiments import settings
from repro.experiments.paper_workloads import PAPER_WORKLOAD_FACTORIES
from repro.sim.columnar import ColumnarTrace
from repro.sim.config import table1_config
from repro.sim.simulator import simulate
from repro.workloads import UpdateStyle

TRAJECTORY_PATH = trajectory_path("BENCH_columnar.json")

SMOKE_PROTOCOLS = ("MESI", "COUP", "RMO")


def _median_generation_seconds(factory, n_cores: int, columnar: bool):
    def generate():
        workload = factory(UpdateStyle.COMMUTATIVE)
        return (
            workload.generate_columnar(n_cores) if columnar else workload.generate(n_cores)
        )

    median_s, _times, trace = median_time(generate)
    return median_s, trace


def _object_heap_bytes(factory, n_cores: int) -> int:
    """Measured heap footprint of one object-form trace."""
    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    trace = factory(UpdateStyle.COMMUTATIVE).generate(n_cores)
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    grown = sum(stat.size_diff for stat in after.compare_to(before, "lineno"))
    del trace
    return max(grown, 0)


def _npz_bytes(trace: ColumnarTrace, tmp_dir: str) -> int:
    path = os.path.join(tmp_dir, "bench_trace.npz")
    trace.save_npz(path)
    size = os.path.getsize(path)
    os.unlink(path)
    return size


def test_columnar_generation_and_size(benchmark, tmp_path):
    """Record generation medians and size ratios; pin fidelity."""
    n_cores = min(16, settings.max_cores())
    per_workload = {}
    total_object_s = 0.0
    total_columnar_s = 0.0
    total_object_heap = 0
    total_columnar_bytes = 0
    total_pickle_bytes = 0
    total_npz_bytes = 0
    total_accesses = 0

    for name, factory in PAPER_WORKLOAD_FACTORIES.items():
        object_s, object_trace = _median_generation_seconds(factory, n_cores, columnar=False)
        columnar_s, columnar_trace = _median_generation_seconds(factory, n_cores, columnar=True)
        heap_bytes = _object_heap_bytes(factory, n_cores)
        pickle_bytes = len(pickle.dumps(object_trace, protocol=pickle.HIGHEST_PROTOCOL))
        npz_bytes = _npz_bytes(columnar_trace, str(tmp_path))

        # Fidelity first: the packed stream must be the same trace.
        assert columnar_trace == ColumnarTrace.from_workload(object_trace), name

        total_object_s += object_s
        total_columnar_s += columnar_s
        total_object_heap += heap_bytes
        total_columnar_bytes += columnar_trace.nbytes
        total_pickle_bytes += pickle_bytes
        total_npz_bytes += npz_bytes
        total_accesses += columnar_trace.total_accesses
        per_workload[name] = {
            "accesses": columnar_trace.total_accesses,
            "object_gen_s": round(object_s, 4),
            "columnar_gen_s": round(columnar_s, 4),
            "gen_speedup": round(object_s / columnar_s, 2) if columnar_s else None,
            "object_heap_bytes": heap_bytes,
            "columnar_bytes": columnar_trace.nbytes,
            "pickle_bytes": pickle_bytes,
            "npz_bytes": npz_bytes,
        }

    # Smoke-grid fidelity: columnar simulation == object simulation, every
    # protocol.  A divergence here is a correctness bug, so it hard-fails.
    smoke_factory = PAPER_WORKLOAD_FACTORIES["hist"]
    smoke_object = smoke_factory(UpdateStyle.COMMUTATIVE).generate(n_cores)
    smoke_columnar = smoke_factory(UpdateStyle.COMMUTATIVE).generate_columnar(n_cores)
    for protocol in SMOKE_PROTOCOLS:
        object_result = simulate(
            smoke_object, table1_config(n_cores), protocol, track_values=True
        )
        columnar_result = run_once(
            benchmark if protocol == SMOKE_PROTOCOLS[0] else _NullBenchmark(),
            simulate,
            smoke_columnar,
            table1_config(n_cores),
            protocol,
            track_values=True,
        )
        assert columnar_result == object_result, protocol

    speedups = [stats["gen_speedup"] for stats in per_workload.values()]
    geomean = statistics.geometric_mean(speedups)
    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "scale": settings.scale(),
        "max_cores": settings.max_cores(),
        "n_cores": n_cores,
        "repeats": REPEATS,
        "total_accesses": total_accesses,
        "generation_speedup": round(geomean, 2),
        "generation_speedup_total": round(total_object_s / total_columnar_s, 2),
        "object_gen_s": round(total_object_s, 4),
        "columnar_gen_s": round(total_columnar_s, 4),
        "memory_reduction": round(total_object_heap / total_columnar_bytes, 2),
        "cached_size_reduction": round(total_pickle_bytes / total_npz_bytes, 2),
        "pickle_bytes": total_pickle_bytes,
        "npz_bytes": total_npz_bytes,
        "object_heap_bytes": total_object_heap,
        "columnar_bytes": total_columnar_bytes,
        "per_workload": per_workload,
        "smoke_protocols_identical": list(SMOKE_PROTOCOLS),
    }
    append_trajectory(TRAJECTORY_PATH, entry)
    benchmark.extra_info["columnar"] = entry

    # Loose regression floors (the recorded targets are 3x / 5x; these
    # bounds only catch a wholesale regression without being flaky on
    # loaded CI machines).
    assert entry["generation_speedup"] > 2.0
    assert entry["cached_size_reduction"] > 5.0


class _NullBenchmark:
    """Pedantic-compatible stub so only one protocol feeds pytest-benchmark."""

    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1):
        return fn(*args, **(kwargs or {}))
