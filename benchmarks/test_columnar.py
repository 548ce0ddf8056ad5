"""Benchmark: the size of a columnar trace against its object form.

Every workload builds its trace as packed columns; ``Workload.generate``
unpacks that trace to the object form (one ``MemoryAccess`` per record,
``ColumnarTrace.to_workload``).  Two claims of the packed format are
measured on the paper workloads and tracked in
``results/benchmarks/BENCH_columnar.json``:

* **In-memory size** (``memory_reduction``) — the object form's measured
  heap footprint against the packed arrays' ``nbytes``.
* **Cached size** (``cached_size_reduction``) — a pickled object trace (what
  a cache or worker hand-off would otherwise hold) against the compressed
  ``.npz`` file.  The target is >= 5x.

That the columns are the right trace is pinned in tier 1, by
``tests/sim/test_builder_reference.py`` (each builder against a frozen
object-form one) and the golden-equivalence suites.
"""

from __future__ import annotations

import os
import pickle
import tracemalloc
from datetime import datetime, timezone

from conftest import append_trajectory, run_once, trajectory_path

from repro.experiments import settings
from repro.experiments.paper_workloads import PAPER_WORKLOAD_FACTORIES
from repro.sim.columnar import ColumnarTrace
from repro.workloads import UpdateStyle

TRAJECTORY_PATH = trajectory_path("BENCH_columnar.json")


def _generate_all(n_cores: int):
    return {
        name: factory(UpdateStyle.COMMUTATIVE).generate_columnar(n_cores)
        for name, factory in PAPER_WORKLOAD_FACTORIES.items()
    }


def _object_heap_bytes(trace: ColumnarTrace):
    """The object form of ``trace`` and its measured heap footprint."""
    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    object_trace = trace.to_workload()
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    grown = sum(stat.size_diff for stat in after.compare_to(before, "lineno"))
    return object_trace, max(grown, 0)


def _npz_bytes(trace: ColumnarTrace, tmp_dir: str) -> int:
    path = os.path.join(tmp_dir, "bench_trace.npz")
    trace.save_npz(path)
    size = os.path.getsize(path)
    os.unlink(path)
    return size


def test_columnar_trace_size(benchmark, tmp_path):
    """Record the size ratios of the paper workloads' traces."""
    n_cores = min(16, settings.max_cores())
    traces = run_once(benchmark, _generate_all, n_cores)
    per_workload = {}
    for name, trace in traces.items():
        object_trace, heap_bytes = _object_heap_bytes(trace)
        per_workload[name] = {
            "accesses": trace.total_accesses,
            "object_heap_bytes": heap_bytes,
            "columnar_bytes": trace.nbytes,
            "pickle_bytes": len(pickle.dumps(object_trace, protocol=pickle.HIGHEST_PROTOCOL)),
            "npz_bytes": _npz_bytes(trace, str(tmp_path)),
        }
        del object_trace

    def total(field: str) -> int:
        return sum(stats[field] for stats in per_workload.values())

    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "scale": settings.scale(),
        "max_cores": settings.max_cores(),
        "n_cores": n_cores,
        "total_accesses": total("accesses"),
        "memory_reduction": round(total("object_heap_bytes") / total("columnar_bytes"), 2),
        "cached_size_reduction": round(total("pickle_bytes") / total("npz_bytes"), 2),
        "pickle_bytes": total("pickle_bytes"),
        "npz_bytes": total("npz_bytes"),
        "object_heap_bytes": total("object_heap_bytes"),
        "columnar_bytes": total("columnar_bytes"),
        "per_workload": per_workload,
    }
    append_trajectory(TRAJECTORY_PATH, entry)
    benchmark.extra_info["columnar"] = entry

    # Loose regression floor (the recorded target is 5x; the bound only
    # catches a wholesale regression without being flaky on loaded CI
    # machines).
    assert entry["cached_size_reduction"] > 5.0
