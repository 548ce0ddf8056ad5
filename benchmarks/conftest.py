"""Benchmark-suite configuration.

The benchmark harness regenerates every table and figure of the paper's
evaluation at a reduced scale (controlled by ``REPRO_SCALE`` and
``REPRO_MAX_CORES``; see :mod:`repro.experiments.settings`).  Each benchmark
runs its experiment exactly once per pytest-benchmark round and attaches the
resulting rows to ``benchmark.extra_info`` so the regenerated numbers appear
in the benchmark report alongside the timing.
"""

from __future__ import annotations

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.experiments import settings, sweep  # noqa: E402


@pytest.fixture(autouse=True, scope="session")
def shm_hygiene():
    """Reclaim stale shared-memory segments and assert this session leaks none.

    Benchmarks that exercise the campaign fabric publish traces as
    ``repro_shm_<pid>_*`` segments; a killed run can strand them in
    ``/dev/shm``.  Dead owners' segments are swept before the session, and
    any segment still owned by *this* process at teardown is a leak.
    """
    if not os.path.isdir("/dev/shm"):
        yield
        return
    reclaimed = sweep.reclaim_stale_segments()
    if reclaimed:
        print(f"reclaimed stale shm segments: {', '.join(reclaimed)}", file=sys.stderr)
    yield
    prefix = f"{sweep.SHM_NAME_PREFIX}{os.getpid()}_"
    leaked = [name for name in os.listdir("/dev/shm") if name.startswith(prefix)]
    assert not leaked, f"benchmark session leaked shm segments: {leaked}"

#: Scale used by the benchmark suite unless the user overrides it via the
#: environment.  Chosen so the full suite completes in a few minutes of
#: pure-Python simulation while preserving every qualitative result.
BENCH_SCALE = float(os.environ.get("REPRO_SCALE", 0.35))
BENCH_MAX_CORES = int(os.environ.get("REPRO_MAX_CORES", 32))


@pytest.fixture(autouse=True)
def bench_scale():
    """Apply the benchmark-suite scale for every benchmark."""
    previous_scale = settings.scale()
    previous_cores = settings.max_cores()
    settings.set_scale(BENCH_SCALE)
    settings.set_max_cores(BENCH_MAX_CORES)
    yield
    settings.set_scale(previous_scale)
    settings.set_max_cores(previous_cores)


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


#: Timed repeats per benchmark measurement; medians land in trajectories.
BENCH_REPEATS = 3
#: Bound on every trajectory file; old entries age out.
MAX_TRAJECTORY_ENTRIES = 200
#: Where the benchmark trajectories are written: the git-ignored results
#: tree, so running the suite never rewrites tracked files.  Nothing reads
#: them back; they record each run for inspection.
TRAJECTORY_DIR = os.path.join(os.path.dirname(_SRC), "results", "benchmarks")


def trajectory_path(filename: str) -> str:
    """Path of one trajectory file under :data:`TRAJECTORY_DIR`."""
    return os.path.join(TRAJECTORY_DIR, filename)


def timed_modes(modes, repeats: int = BENCH_REPEATS, *, estimator=None, warmup=True):
    """Shared timing core: ``{name: (estimate_s, times, last_result)}``.

    ``modes`` is a sequence of ``(name, zero-arg callable)`` pairs.  Rounds
    are *interleaved* (one timing of every mode per round, optionally after
    one untimed warm-up round) so slow drift of the machine's speed — CPU
    frequency scaling, a sibling job winding down — hits all modes equally
    instead of biasing whichever phase ran later.  ``estimator`` folds each
    mode's timings into the reported estimate: ``min`` for comparing
    near-identical code paths (noise-robust), median (the default) for
    absolute wall-clock trajectories.

    This is the one timing helper behind every benchmark in this suite
    (test_sweep.py, test_columnar.py, test_network_contention.py,
    test_kernel.py); keep refinements here rather than per-file.
    """
    import statistics
    import time

    if estimator is None:
        estimator = statistics.median
    times = {name: [] for name, _ in modes}
    results = {}
    if warmup:  # imports, allocator, branch caches
        for name, fn in modes:
            results[name] = fn()
    for _ in range(repeats):
        for name, fn in modes:
            start = time.perf_counter()
            results[name] = fn()
            times[name].append(time.perf_counter() - start)
    return {name: (estimator(times[name]), times[name], results[name]) for name, _ in modes}


def median_time(fn, repeats: int = BENCH_REPEATS):
    """``(median_seconds, all_seconds, last_result)`` over timed repeats.

    Single-shot wall-clock numbers on shared machines swing by tens of
    percent; every benchmark records the median of ``repeats`` runs.
    (Single-mode wrapper around :func:`timed_modes`; no warm-up round, so
    existing trajectory semantics are unchanged.)
    """
    estimate, times, result = timed_modes(
        (("fn", fn),), repeats, warmup=False
    )["fn"]
    return estimate, times, result


def interleaved_best_times(modes, repeats: int = BENCH_REPEATS):
    """``{name: (min_seconds, all_seconds, last_result)}`` per mode.

    Min-of-N over interleaved rounds with one warm-up round: the right
    estimator when the modes execute near-identical work and the question
    is which code path is cheaper.
    """
    return timed_modes(modes, repeats, estimator=min, warmup=True)


def append_trajectory(path: str, entry: dict, max_entries: int = MAX_TRAJECTORY_ENTRIES) -> None:
    """Append one entry to a bounded JSON trajectory file."""
    import json

    trajectory = []
    if os.path.exists(path):
        try:
            with open(path) as handle:
                trajectory = json.load(handle)
        except (OSError, ValueError):
            trajectory = []  # a corrupt trajectory restarts rather than aborts
    if not isinstance(trajectory, list):
        trajectory = []
    trajectory.append(entry)
    trajectory = trajectory[-max_entries:]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(trajectory, handle, indent=2)
        handle.write("\n")
