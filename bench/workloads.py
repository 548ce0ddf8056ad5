"""The four benchmark workloads: set-up, one timed unit of work, digests.

Everything here runs inside a benchmark child process (``bench.child``),
after the parent has put the workload's environment (``REPRO_SCALE``,
``REPRO_MAX_CORES``, ``REPRO_OBS`` for traced runs) in place, so importing
this module imports the reproduction under those settings.

A workload is a ``setup(seed, quick, recorder)`` that returns a state object
and a ``unit(state, work_dir, recorder)`` that does one timed unit of work
and returns its measurements.  ``recorder`` is a
:class:`bench.tracing.SpanRecorder` in traced runs and ``None`` otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import shutil
import tempfile
import time
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.experiments import EXPERIMENT_MODULES, runner, settings, sweep
from repro.experiments.paper_workloads import PAPER_WORKLOAD_FACTORIES
from repro.sim.config import table1_config
from repro.sim.simulator import simulate
from repro.sim.stats import SimulationResult
from repro.workloads import (
    MultiCounterWorkload,
    ReadOnlyWorkload,
    SharedCounterWorkload,
    UpdateStyle,
)

from bench import REPO_ROOT, WORKERS
from bench.tracing import SpanRecorder, result_counts, span

#: Simulated cores of every ``paper-grid`` and ``hitrun`` point.
GRID_CORES = 16

#: Per-core accesses of each ``hitrun`` workload at scale 1.0.
HITRUN_BASE_ACCESSES = 40_000

#: Experiments of the quick smoke campaign: one simulation sweep and the
#: verification sweep whose host-time column the digest must blank.
QUICK_EXPERIMENTS = ("figure10", "figure8")


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

_COMPLETED_LINE = re.compile(r"^\[[^\]]+\] completed in [0-9.]+s$")
_FIGURE8_TITLE = "Figure 8:"


def normalize_campaign_output(text: str) -> str:
    """The runner's stdout without its host-time fields.

    Drops every ``[<id>] completed in Ns`` line and blanks the ``time_s``
    column of the Figure 8 table (re-joining that table's cells with single
    spaces, since the column's width follows its values).  Nothing else of
    a serial run's output differs from a ``--jobs 2`` run's.
    """
    lines: List[str] = []
    time_column: Optional[int] = None
    in_figure8 = False
    for line in text.splitlines():
        if _COMPLETED_LINE.match(line):
            continue
        if line.startswith(_FIGURE8_TITLE):
            in_figure8, time_column = True, None
        elif in_figure8 and not line.strip():
            in_figure8 = False
        elif in_figure8:
            cells = line.split()
            if time_column is None:
                time_column = cells.index("time_s")
            else:
                cells[time_column] = "-"
            line = " ".join(cells)
        lines.append(line)
    return "\n".join(lines) + "\n"


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def result_digest(result: Any) -> str:
    """sha256 of a SimulationResult's canonical ``to_jsonable()`` form."""
    return sha256_text(
        json.dumps(result.to_jsonable(), sort_keys=True, separators=(",", ":"))
    )


def combined_digest(point_digests: Mapping[str, str]) -> str:
    """One digest over per-point digests, in point order."""
    return sha256_text("".join(f"{key}={digest}\n" for key, digest in point_digests.items()))


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------


class CampaignState(NamedTuple):
    seed: int
    jobs: int
    experiments: Tuple[str, ...]
    specs: Dict[str, Any]
    n_points: int
    collect: Any  # scripts/collect_results.py, loaded as a module


def _load_collect_results() -> Any:
    path = os.path.join(REPO_ROOT, "scripts", "collect_results.py")
    spec = importlib.util.spec_from_file_location("bench_collect_results", path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _campaign_setup(jobs: int, seed: int, quick: bool, recorder: Optional[SpanRecorder]) -> CampaignState:
    experiments = QUICK_EXPERIMENTS if quick else tuple(EXPERIMENT_MODULES)
    specs: Dict[str, Any] = {}
    n_points = 0
    for experiment_id in experiments:
        module = importlib.import_module(EXPERIMENT_MODULES[experiment_id])
        spec_fn = getattr(module, "sweep_spec", None)
        specs[experiment_id] = spec_fn() if spec_fn is not None else None
        n_points += len(specs[experiment_id].points) if specs[experiment_id] else 1
    collect = _load_collect_results() if jobs > 1 else None
    return CampaignState(seed, jobs, experiments, specs, n_points, collect)


def _cached_sim_results(state: CampaignState, cache_dir: str) -> List[Any]:
    """Every SimPoint's full result, read back from the campaign's result cache."""
    results = []
    for spec in state.specs.values():
        for point in spec.points if spec is not None else ():
            if not isinstance(point, sweep.SimPoint):
                continue
            path = os.path.join(cache_dir, f"{sweep.ResultCache.digest(point.fingerprint())}.json")
            with open(path) as handle:
                results.append(SimulationResult.from_jsonable(json.load(handle)["value"]))
    return results


def _campaign_unit(state: CampaignState, work_dir: str, recorder: Optional[SpanRecorder]) -> Dict[str, Any]:
    # A user regenerating the evaluation starts with an empty trace cache.
    sweep.shared_trace_cache().clear()
    argv = ["--seed", str(state.seed), *state.experiments]
    results_dir = cache_dir = None
    if state.jobs > 1:
        results_dir = tempfile.mkdtemp(prefix="results-", dir=work_dir)
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=work_dir)
        argv += ["--jobs", str(state.jobs), "--results-dir", results_dir, "--cache-dir", cache_dir]
    out, err = io.StringIO(), io.StringIO()
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = runner.main(argv)
        folded: Dict[str, Any] = {}
        journal: Optional[Dict[str, Any]] = None
        if results_dir is not None:
            with span(recorder, "collect.fold"):
                folded = state.collect.collect_point_records(
                    results_dir, scale=settings.scale(), max_cores=settings.max_cores()
                )
                journal = state.collect.collect_journal_records(results_dir)
        wall = time.perf_counter() - start

        problems = []
        failed = 0
        if status != 0:
            problems.append(f"runner exited {status}: {err.getvalue()[-2000:]}")
        counts: Dict[str, Any] = {
            "sweep.trace_hits": sweep.shared_trace_cache().hits,
            "sweep.trace_misses": sweep.shared_trace_cache().misses,
        }
        if results_dir is not None:
            records = [point for digest in folded.values() for point in digest["points"]]
            failed = sum(1 for point in records if point["status"] != "ok")
            failed += max(0, state.n_points - len(records))
            statuses = (journal or {}).get("status_counts", {})
            if statuses != {"ok": state.n_points}:
                problems.append(f"journal status counts {statuses}, want {state.n_points} ok")
            counts["runner.point_elapsed"] = [float(point["elapsed_s"]) for point in records]
            if recorder is not None:
                counts.update(result_counts(_cached_sim_results(state, cache_dir)))
        return {
            "wall_s": wall,
            "digest": sha256_text(normalize_campaign_output(out.getvalue())),
            "points": None,
            "attempted": state.n_points,
            "failed": state.n_points if status != 0 else failed,
            "problems": problems,
            "accesses": None,
            "counts": counts,
        }
    finally:
        for directory in (results_dir, cache_dir):
            if directory is not None:
                shutil.rmtree(directory, ignore_errors=True)


# ---------------------------------------------------------------------------
# Simulator throughput: paper-grid and hitrun
# ---------------------------------------------------------------------------


class GridState(NamedTuple):
    config: Any
    points: List[Tuple[str, str, Any]]  # (point key, protocol, columnar trace)
    accesses: int
    counts: Dict[str, Any]


def _seeded_paper_workload(factory: Callable[..., Any], style: UpdateStyle, seed: int) -> Any:
    # The paper factories fix every size from REPRO_SCALE but take no seed;
    # workloads draw from ``self.seed`` only when generating, so setting it
    # on the fresh instance is the same as passing ``seed=``.
    workload = factory(style)
    workload.seed = seed
    return workload


def paper_grid_specs(seed: int) -> List[Tuple[str, str, sweep.WorkloadSpec]]:
    """The 5 paper benchmarks x {MESI atomic, COUP commutative, RMO commutative}."""
    points = []
    for name, factory in PAPER_WORKLOAD_FACTORIES.items():
        atomic = sweep.WorkloadSpec.plain(partial(_seeded_paper_workload, factory, UpdateStyle.ATOMIC, seed))
        commutative = sweep.WorkloadSpec.plain(
            partial(_seeded_paper_workload, factory, UpdateStyle.COMMUTATIVE, seed)
        )
        points += [
            (f"{name}/MESI", "MESI", atomic),
            (f"{name}/COUP", "COUP", commutative),
            (f"{name}/RMO", "RMO", commutative),
        ]
    return points


def hitrun_specs(seed: int) -> List[Tuple[str, str, sweep.WorkloadSpec]]:
    """Three hit-run-dominated workloads whose slow path is under 1% of the run."""
    n = settings.scaled(HITRUN_BASE_ACCESSES)
    return [
        (
            "shared-counter/COUP",
            "COUP",
            sweep.WorkloadSpec.plain(partial(SharedCounterWorkload, updates_per_core=n, seed=seed)),
        ),
        (
            "multi-counter/COUP",
            "COUP",
            sweep.WorkloadSpec.plain(
                partial(MultiCounterWorkload, n_counters=64, updates_per_core=n, hot_fraction=0.3, seed=seed)
            ),
        ),
        (
            "read-only/MESI",
            "MESI",
            sweep.WorkloadSpec.plain(partial(ReadOnlyWorkload, reads_per_core=n, seed=seed)),
        ),
    ]


def _grid_setup(
    make_specs: Callable[[int], List[Tuple[str, str, sweep.WorkloadSpec]]],
    seed: int,
    quick: bool,
    recorder: Optional[SpanRecorder],
) -> GridState:
    # Traces come through the sweep layer's cache, so points sharing a trace
    # (COUP and RMO on the same commutative workload) generate it once.
    cache = sweep.TraceCache()
    points = [(key, protocol, cache.get(spec, GRID_CORES)) for key, protocol, spec in make_specs(seed)]
    return GridState(
        config=table1_config(GRID_CORES),
        points=points,
        accesses=sum(trace.total_accesses for _, _, trace in points),
        counts={"sweep.trace_hits": cache.hits, "sweep.trace_misses": cache.misses},
    )


def _grid_unit(state: GridState, work_dir: str, recorder: Optional[SpanRecorder]) -> Dict[str, Any]:
    results = []
    start = time.perf_counter()
    for _, protocol, trace in state.points:
        results.append(simulate(trace, state.config, protocol, track_values=False))
    wall = time.perf_counter() - start

    digests: Dict[str, str] = {}
    problems = []
    failed = 0
    for (key, _, trace), result in zip(state.points, results):
        digests[key] = result_digest(result)
        if result.total_accesses != trace.total_accesses or result.run_cycles <= 0:
            failed += 1
            problems.append(
                f"{key}: retired {result.total_accesses} of {trace.total_accesses} accesses "
                f"in {result.run_cycles} cycles"
            )
    return {
        "wall_s": wall,
        "digest": combined_digest(digests),
        "points": digests,
        "attempted": len(state.points),
        "failed": failed,
        "problems": problems,
        "accesses": state.accesses,
        "counts": {**state.counts, **result_counts(results)},
    }


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class Workload(NamedTuple):
    setup: Callable[[int, bool, Optional[SpanRecorder]], Any]
    unit: Callable[[Any, str, Optional[SpanRecorder]], Dict[str, Any]]
    #: Whether the traced pass adds per-event spans on the protocol slow path.
    pass_b: bool


WORKLOADS: Dict[str, Workload] = {
    "campaign-serial": Workload(partial(_campaign_setup, WORKERS["campaign-serial"]), _campaign_unit, False),
    "campaign-jobs2": Workload(partial(_campaign_setup, WORKERS["campaign-jobs2"]), _campaign_unit, False),
    "paper-grid": Workload(partial(_grid_setup, paper_grid_specs), _grid_unit, True),
    "hitrun": Workload(partial(_grid_setup, hitrun_specs), _grid_unit, True),
}
