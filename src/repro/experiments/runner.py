"""Command-line entry point: run one or all of the paper's experiments.

Usage::

    python -m repro.experiments.runner                 # run everything
    python -m repro.experiments.runner figure10        # run a single experiment
    python -m repro.experiments.runner --list          # list experiment ids
    python -m repro.experiments.runner --jobs 4        # parallel sweep points
    python -m repro.experiments.runner --jobs 4 --resume   # skip cached points

Every experiment exposes its grid as a declarative sweep spec
(:mod:`repro.experiments.sweep`), so ``--jobs N`` load-balances *individual
sweep points* — one (benchmark x core count x protocol) simulation each —
across worker processes instead of whole experiments.  Each point is seeded
deterministically from ``--seed``, the experiment id, and the point key, so
results do not depend on execution order or the degree of parallelism; the
per-experiment tables are rebuilt from the point results and printed in
submission order, matching a serial run.

``--cache-dir`` persists every completed point keyed by a content hash of
(machine config, workload parameters, protocol, seed, scale), plus every
materialized workload trace as a packed ``.npz`` file under
``<cache-dir>/traces``; ``--resume`` additionally reuses any matching cached
points, so an interrupted or repeated sweep only simulates what is missing.

A serial run and a ``--jobs N`` run take the same path through each
experiment: build its sweep spec, run every point under its own seed, and
fold the point results into the printed tables.  They differ only in where
the points run (in this process, or in supervised workers).

With ``--jobs N`` and ``--cache-dir``, the parent generates each distinct
trace once, in dispatch order and while the workers run earlier points, and
stores it in the ``.npz`` store; each point is dispatched once its trace is
stored, and the worker loads it.  Without a cache dir, each worker generates
the traces of the points it runs.  Traces never travel through pickles.

With ``--results-dir`` (implied by ``--jobs``), every experiment writes a
structured JSON record (id, status, elapsed seconds, captured output) and
one record per sweep point under ``<results-dir>/points/`` so
``scripts/collect_results.py`` and CI can fold them.

With ``--jobs N`` the points run under a supervised worker pool
(:mod:`repro.experiments.supervisor`): every point gets a size-scaled
wall-clock deadline, dead or hung workers are detected and their points
retried with bounded deterministic backoff, and points that keep failing
are quarantined instead of killing the campaign.  Each point outcome is
also journalled to a crash-safe write-ahead log under
``<results-dir>/journal/`` (:mod:`repro.experiments.journal`), which
``--resume`` replays so a campaign killed at any instant — even mid-write —
resumes exactly.  The recovery paths are exercised deterministically via
the ``REPRO_FAULT`` knob (:mod:`repro.experiments.faults`).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import re
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple, cast

from repro import obs as _obs
from repro.experiments import (
    EXPERIMENT_MODULES,
    faults,
    journal,
    settings,
    supervisor,
    sweep,
)
from repro.obs import events as obs_events

#: Default directory for per-experiment JSON records.
DEFAULT_RESULTS_DIR = os.path.join("results", "experiments")

#: One sweep point shipped to a worker: (experiment id, point key, base
#: seed, scale, max cores, cache dir, resume flag).
_PointTask = Tuple[str, str, int, float, int, Optional[str], bool]
#: A completed point: (experiment id, point key, status, elapsed seconds
#: including getting its trace, replayed-from-cache flag, result payload or
#: traceback text, stderr text).
_PointDone = Tuple[str, str, str, float, bool, object, str]


@dataclass
class ExperimentOutcome:
    """Result of running one experiment."""

    experiment_id: str
    status: str  # "ok" or "error"
    #: Serial: the experiment's wall time.  ``--jobs``: the sum of its
    #: points' times in the workers.  Either way a point's time includes
    #: getting its trace: generating it, or loading it from the ``.npz``
    #: store.
    elapsed_s: float
    seed: int
    scale: float
    max_cores: int
    error: Optional[str] = None
    #: How many sweep points ran and how many were replayed from the
    #: persistent cache (None when the sweep spec could not be built).
    n_points: Optional[int] = None
    cached_points: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _experiment_seed(base_seed: int, experiment_id: str) -> int:
    """Deterministic per-experiment seed, independent of execution order."""
    return random.Random(f"{base_seed}:{experiment_id}").getrandbits(32)


def _point_seed(base_seed: int, experiment_id: str, point_key: str) -> int:
    """Deterministic per-point seed, independent of scheduling."""
    return random.Random(f"{base_seed}:{experiment_id}:{point_key}").getrandbits(32)


def _seed_everything(seed: int) -> None:
    """Seed the global RNGs an experiment might consult.

    The workloads construct their own :func:`numpy.random.default_rng`
    instances from fixed seeds, so this is belt-and-braces: it guarantees
    that any stray use of the global generators is also reproducible.
    """
    random.seed(seed)
    try:
        import numpy as np

        np.random.seed(seed % (2**32))
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        pass


def run_experiment(
    experiment_id: str,
    base_seed: int = 0,
    *,
    result_cache: Optional[sweep.ResultCache] = None,
    results_dir: Optional[str] = None,
) -> ExperimentOutcome:
    """Run one experiment's sweep points in order in this process; never raises.

    Each point runs under the seed a ``--jobs`` worker would give it, and
    the results fold into the printed tables exactly as in
    :func:`run_parallel`.  A failing point fails the experiment after the
    remaining points have run; the failure is reported in the returned
    outcome (and by :func:`main` as a nonzero exit code) instead of aborting
    sibling experiments.  With ``results_dir``, every point and the
    experiment write their JSON records.
    """
    start = time.perf_counter()
    try:
        spec = _build_spec(experiment_id)
    except Exception:
        return _report(
            *_spec_failure(experiment_id, base_seed, traceback.format_exc()),
            results_dir,
        )
    point_results: Dict[str, object] = {}
    point_errors: Dict[str, str] = {}
    cached_points = 0
    for point in spec.points:
        seed = _point_seed(base_seed, experiment_id, point.key)
        _seed_everything(seed)
        point_start = time.perf_counter()
        value: object = None
        error: Optional[str] = None
        cached = False
        try:
            value, cached = sweep.run_point(point, result_cache=result_cache)
        except Exception:
            error = point_errors[point.key] = traceback.format_exc()
        else:
            point_results[point.key] = value
            cached_points += int(cached)
        if results_dir:
            _write_point_record(
                results_dir,
                experiment_id,
                point.key,
                status="ok" if error is None else "error",
                elapsed_s=time.perf_counter() - point_start,
                cached=cached,
                seed=seed,
                value=value,
                error=error,
            )
    return _report(
        *_assemble_experiment(
            experiment_id,
            spec,
            point_results,
            point_errors,
            time.perf_counter() - start,
            cached_points,
            base_seed,
        ),
        results_dir,
    )


#: Worker-side memo of sweep specs: every worker process rebuilds each
#: experiment's spec at most once (specs are deterministic given settings,
#: so a rebuilt spec names exactly the points the parent scheduled).
_worker_specs: Dict[str, sweep.SweepSpec] = {}


def _build_spec(experiment_id: str) -> sweep.SweepSpec:
    """The experiment's sweep spec; raises if the module exposes none."""
    module = importlib.import_module(EXPERIMENT_MODULES[experiment_id])
    spec: sweep.SweepSpec = module.sweep_spec()
    return spec


def _trace_store_dir(cache_dir: Optional[str]) -> Optional[str]:
    """Directory holding persisted ``.npz`` traces under a point cache dir."""
    return os.path.join(cache_dir, "traces") if cache_dir else None


def _emit_point_obs(
    experiment_id: str,
    point_key: str,
    status: str,
    elapsed_s: float,
    delta: Mapping[str, object],
) -> None:
    """Append this point's telemetry delta to the worker's event segment.

    Best-effort: a telemetry I/O failure must never fail the point.
    """
    try:
        writer = obs_events.process_writer(_obs.events_dir())
        writer.emit(
            "point_obs",
            {
                "counters": delta.get("counters", {}),
                "elapsed_s": round(elapsed_s, 6),
                "experiment": experiment_id,
                "phases": delta.get("phases", {}),
                "point": point_key,
                "status": status,
            },
        )
    except OSError:
        pass


def _run_point_task(args: _PointTask, attempt: int = 0) -> _PointDone:
    """Worker entry point: execute one sweep point.

    The point's trace comes from this worker's trace cache, which loads it
    from the ``.npz`` store under ``cache_dir`` (where the parent stored it)
    or generates it; with a store, the cache keeps only the current trace.
    Returns ``(experiment_id, point_key, status, elapsed_s, cached,
    payload, stderr_text)`` where ``elapsed_s`` includes getting the trace
    and ``payload`` is the point result on success or the formatted
    traceback on error.  ``attempt`` is the supervisor's retry index for
    this point, which keys deterministic fault injection (``REPRO_FAULT``):
    a ``times=1`` fault fires on the first attempt and the retry runs clean.
    """
    experiment_id, point_key, base_seed, scale, max_cores, cache_dir, resume = args
    plan = faults.active_plan()
    if plan:
        if plan.should("kill", experiment_id, point_key, attempt) is not None:
            faults.fire_kill()
        hang = plan.should("hang", experiment_id, point_key, attempt)
        if hang is not None:
            faults.fire_hang(hang.secs)
    settings.set_scale(scale)
    settings.set_max_cores(max_cores)
    cache = sweep.ResultCache(cache_dir, read=resume) if cache_dir else None
    traces = sweep.shared_trace_cache()
    traces.store_dir = _trace_store_dir(cache_dir)
    if cache_dir:
        # The parent stored every trace: hold only this point's, so the
        # worker's memory does not depend on which points it ran before.
        traces.max_traces = 1
    _seed_everything(_point_seed(base_seed, experiment_id, point_key))
    obs_reg = _obs.get_registry()
    obs_baseline = (
        obs_reg.snapshot()
        if obs_reg is not None and _obs.events_enabled()
        else None
    )
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            spec = _worker_specs.get(experiment_id)
            if spec is None:
                spec = _worker_specs[experiment_id] = _build_spec(experiment_id)
            value, cached = sweep.run_point(spec.point(point_key), result_cache=cache)
    except Exception:
        elapsed = time.perf_counter() - start
        if obs_reg is not None and obs_baseline is not None:
            _emit_point_obs(
                experiment_id, point_key, "error", elapsed, obs_reg.delta(obs_baseline)
            )
        return (
            experiment_id,
            point_key,
            "error",
            elapsed,
            False,
            traceback.format_exc(),
            err.getvalue(),
        )
    elapsed = time.perf_counter() - start
    if obs_reg is not None and obs_baseline is not None:
        _emit_point_obs(
            experiment_id, point_key, "ok", elapsed, obs_reg.delta(obs_baseline)
        )
    return experiment_id, point_key, "ok", elapsed, cached, value, err.getvalue()


def _sanitize_point_key(point_key: str) -> str:
    """A filesystem-safe, collision-free file stem for a point key."""
    stem = re.sub(r"[^A-Za-z0-9._-]+", "_", point_key)
    digest = hashlib.sha1(point_key.encode()).hexdigest()[:8]
    return f"{stem}-{digest}"


def _write_point_record(
    results_dir: str,
    experiment_id: str,
    point_key: str,
    *,
    status: str,
    elapsed_s: float,
    cached: bool,
    seed: int,
    value: object = None,
    error: Optional[str] = None,
) -> str:
    """Write one sweep point's structured JSON record; returns the path."""
    directory = os.path.join(results_dir, "points", experiment_id)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{_sanitize_point_key(point_key)}.json")
    record: Dict[str, object] = {
        "experiment_id": experiment_id,
        "point": point_key,
        "status": status,
        "elapsed_s": elapsed_s,
        "cached": cached,
        "seed": seed,
        "scale": settings.scale(),
        "max_cores": settings.max_cores(),
    }
    if error is not None:
        record["error"] = error
    summary = getattr(value, "summary", None)
    if callable(summary):
        record["summary"] = summary()
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    return path


def _write_record(results_dir: str, outcome: ExperimentOutcome, output: str) -> str:
    """Write one experiment's structured JSON record; returns the path."""
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{outcome.experiment_id}.json")
    record: Dict[str, object] = asdict(outcome)
    record["output"] = output
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    return path


def _assemble_experiment(
    experiment_id: str,
    spec: sweep.SweepSpec,
    point_results: Dict[str, object],
    point_errors: Dict[str, str],
    elapsed_s: float,
    cached_points: int,
    base_seed: int,
) -> Tuple[ExperimentOutcome, str, str]:
    """Fold one experiment's point results into its rows and printed table."""
    seed = _experiment_seed(base_seed, experiment_id)

    def _outcome(status: str, error: Optional[str] = None) -> ExperimentOutcome:
        return ExperimentOutcome(
            experiment_id=experiment_id,
            status=status,
            elapsed_s=elapsed_s,
            seed=seed,
            scale=settings.scale(),
            max_cores=settings.max_cores(),
            error=error,
            n_points=len(spec.points),
            cached_points=cached_points,
        )

    if point_errors:
        failed = ", ".join(sorted(point_errors))
        error = f"sweep points failed: {failed}\n" + "\n".join(point_errors.values())
        err_text = f"[{experiment_id}] FAILED after {elapsed_s:.1f}s\n" + error
        return _outcome("error", error), "", err_text

    out = io.StringIO()
    err = io.StringIO()
    try:
        module = importlib.import_module(EXPERIMENT_MODULES[experiment_id])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            results = spec.rows(point_results)
            module.render(results)
            print(f"[{experiment_id}] completed in {elapsed_s:.1f}s\n")
    except Exception:
        error = traceback.format_exc()
        err_text = err.getvalue() + f"[{experiment_id}] FAILED after {elapsed_s:.1f}s\n" + error
        return _outcome("error", error), out.getvalue(), err_text
    return _outcome("ok"), out.getvalue(), err.getvalue()


def _task_timeout(point: sweep.SweepPoint, base: float, scale: float) -> float:
    """Wall-clock budget for one attempt of a sweep point.

    The base (``REPRO_POINT_TIMEOUT``) is scaled up for larger workloads
    and wider machines; function points (verification sweeps) get a flat 4x
    budget because their cost does not track core count.
    """
    if isinstance(point, sweep.SimPoint):
        return base * max(1.0, scale) * max(1.0, point.n_cores / 32.0)
    return base * 4.0


def _spec_failure(
    experiment_id: str, base_seed: int, error: str
) -> Tuple[ExperimentOutcome, str, str]:
    """The outcome and stderr text of an experiment whose spec failed to build."""
    outcome = ExperimentOutcome(
        experiment_id=experiment_id,
        status="error",
        elapsed_s=0.0,
        seed=_experiment_seed(base_seed, experiment_id),
        scale=settings.scale(),
        max_cores=settings.max_cores(),
        error=error,
    )
    return outcome, "", f"[{experiment_id}] FAILED building sweep spec\n" + error


def _report(
    outcome: ExperimentOutcome, out: str, err: str, results_dir: Optional[str]
) -> ExperimentOutcome:
    """Print one experiment's tables and errors, and write its record."""
    sys.stdout.write(out)
    if err:
        sys.stderr.write(err)
    if results_dir:
        _write_record(results_dir, outcome, out)
    return outcome


def run_parallel(
    experiment_ids: List[str],
    jobs: int,
    *,
    base_seed: int = 0,
    results_dir: Optional[str] = None,
    cache_dir: Optional[str] = None,
    resume: bool = False,
) -> List[ExperimentOutcome]:
    """Run experiments at sweep-point granularity in ``jobs`` workers.

    Each experiment's grid is expanded into individual sweep points, which
    are load-balanced across a supervised worker pool
    (:class:`repro.experiments.supervisor.Supervisor`); per-experiment
    tables are rebuilt from the point results and printed in submission
    order, exactly as :func:`run_experiment` prints them.

    Fault tolerance: every point carries a size-scaled wall-clock deadline;
    a worker that dies (OOM kill, segfault) or hangs past its deadline is
    detected, its point retried with deterministic backoff, and a point
    that keeps failing is quarantined — recorded and reported, while the
    rest of the campaign completes.  With ``results_dir``, every point
    outcome is also appended to a crash-safe journal
    (``<results_dir>/journal/``); a resumed campaign replays journalled
    points whose cache entries verify, without re-dispatching them.

    With a ``cache_dir``, the parent prefetches traces: the supervisor
    prepares each task in this process (``Supervisor.run``'s ``prepare``),
    in submission order and while the workers run earlier tasks, and
    dispatches the task only afterwards.  Preparing generates each distinct
    trace once and stores it under ``<cache_dir>/traces``, from which the
    worker loads it.  Without a cache dir there is no store to hand a trace
    over through, so the parent materializes no trace and each worker
    generates its own.  The parent prefetches through a cache of its own
    that holds one trace, and leaves the process-wide trace cache as it
    found it; a worker holds one trace with a store (reloading a
    trace costs less than the memory, which would otherwise depend on the
    order the points reached the worker), and ``max_traces`` without.
    Generation is deterministic, so results do not depend on which process
    generated a trace.  (The prefetch keeps one generation per distinct
    trace in this process, where ``bench`` counts and pins it; ROADMAP
    item 6 deletes it once ``bench`` counts the workers' generation.)
    """
    import multiprocessing

    plan = faults.refresh_active_plan()
    scale = settings.scale()
    max_cores = settings.max_cores()
    timeout_base = settings.point_timeout()
    attempts_budget = settings.max_attempts()

    specs: Dict[str, sweep.SweepSpec] = {}
    spec_errors: Dict[str, str] = {}
    for experiment_id in experiment_ids:
        try:
            specs[experiment_id] = _build_spec(experiment_id)
        except Exception:
            # Reported as a failed experiment below; siblings keep running.
            spec_errors[experiment_id] = traceback.format_exc()

    resume_cache = (
        sweep.ResultCache(cache_dir, read=True) if (resume and cache_dir) else None
    )
    # The parent never reads a prefetched trace back: it only fills the
    # store the workers load from.
    prefetch_cache = sweep.TraceCache(max_traces=1, store_dir=_trace_store_dir(cache_dir))
    prefetched: Set[Tuple[object, ...]] = set()

    def _prefetch(task: supervisor.TaskSpec) -> None:
        """Generate and store the task's trace for its worker, once per
        trace key; skip FuncPoints and results the worker will replay."""
        experiment_id, point_key = cast(_PointTask, task.payload)[:2]
        point = specs[experiment_id].point(point_key)
        if not isinstance(point, sweep.SimPoint):
            return
        if resume_cache is not None and resume_cache.contains(point):
            return
        try:
            key = point.workload.key(point.n_cores)
            if key not in prefetched:
                prefetched.add(key)
                prefetch_cache.get(point.workload, point.n_cores)
        except Exception as exc:
            # The worker meets the same failure and reports it per point.
            print(
                f"[runner] {task.task_id}: trace prefetch failed ({exc}); "
                "the worker generates it",
                file=sys.stderr,
            )

    journal_writer: Optional[journal.JournalWriter] = None
    journaled: Dict[Tuple[str, str], Mapping[str, object]] = {}
    if results_dir:
        journal_directory = journal.journal_dir(results_dir)
        if resume:
            # JournalCorruptError (damage beyond the recoverable tail)
            # propagates: resuming over a silently mis-folded journal could
            # skip work that never completed.
            replay = journal.replay_dir(journal_directory)
            journaled = journal.latest_point_records(replay)
            for torn_path in replay.truncated_segments:
                print(
                    f"[runner] journal segment {torn_path} has a torn tail "
                    "(crash mid-write); intact prefix recovered",
                    file=sys.stderr,
                )
        journal_writer = journal.JournalWriter(
            journal.fresh_segment_path(journal_directory, os.getpid()),
            torn_hook=plan.torn_hook(),
        )

    # Campaign-side telemetry: the parent's own event segment plus a
    # supervisor lifecycle hook.  Everything here is observational —
    # a failure to open the segment degrades to no events, never aborts.
    obs_reg = _obs.get_registry()
    obs_baseline = obs_reg.snapshot() if obs_reg is not None else None
    campaign_events: Optional[obs_events.EventWriter] = None
    if _obs.events_enabled():
        try:
            campaign_events = obs_events.EventWriter(_obs.events_dir(), "campaign")
        except OSError as exc:
            print(f"[runner] obs event segment unavailable ({exc})", file=sys.stderr)

    def _lifecycle(event: str, fields: Dict[str, object]) -> None:
        if obs_reg is not None:
            obs_reg.inc(f"supervisor.{event}")
        if campaign_events is not None:
            record = dict(fields)
            record["event"] = event
            record["worker"] = fields.get("pid", "?")
            campaign_events.emit("worker", record)

    point_results: Dict[str, Dict[str, object]] = {e: {} for e in experiment_ids}
    point_errors: Dict[str, Dict[str, str]] = {e: {} for e in experiment_ids}
    point_elapsed: Dict[str, float] = {e: 0.0 for e in experiment_ids}
    cached_counts: Dict[str, int] = {e: 0 for e in experiment_ids}

    tasks: List[supervisor.TaskSpec] = []
    for experiment_id, spec in specs.items():
        for point in spec.points:
            # Journal replay pre-pass: a point the journal marks complete,
            # whose content digest still matches and whose cache entry
            # verifies, is folded in the parent without being dispatched.
            record = journaled.get((experiment_id, point.key))
            if (
                record is not None
                and record.get("status") == "ok"
                and resume_cache is not None
            ):
                fingerprint = point.fingerprint()
                digest = (
                    sweep.ResultCache.digest(fingerprint)
                    if fingerprint is not None
                    else None
                )
                if digest is not None and record.get("digest") == digest:
                    hit, value = resume_cache.load(point)
                    if hit:
                        point_results[experiment_id][point.key] = value
                        cached_counts[experiment_id] += 1
                        if results_dir:
                            _write_point_record(
                                results_dir,
                                experiment_id,
                                point.key,
                                status="ok",
                                elapsed_s=0.0,
                                cached=True,
                                seed=_point_seed(base_seed, experiment_id, point.key),
                                value=value,
                            )
                        continue
            tasks.append(
                supervisor.TaskSpec(
                    task_id=f"{experiment_id}/{point.key}",
                    payload=(
                        experiment_id,
                        point.key,
                        base_seed,
                        scale,
                        max_cores,
                        cache_dir,
                        resume,
                    ),
                    timeout_s=_task_timeout(point, timeout_base, scale),
                )
            )

    # Live status line: one update per completed task, rewritten in place on
    # a tty, throttled to occasional plain lines otherwise (CI logs).
    n_total = len(tasks)
    progress = {"done": 0, "failed": 0, "cached": 0}
    progress_start = time.monotonic()
    progress_tty = sys.stderr.isatty()
    progress_last = [0.0]

    def _settle(
        experiment_id: str,
        point_key: str,
        *,
        status: str,
        attempts: int,
        elapsed_s: float = 0.0,
        cached: bool = False,
        value: object = None,
        error: Optional[str] = None,
    ) -> None:
        """Fold one point's final outcome: record, journal, event, progress."""
        if error is None:
            point_results[experiment_id][point_key] = value
        else:
            point_errors[experiment_id][point_key] = error
        point_elapsed[experiment_id] += elapsed_s
        cached_counts[experiment_id] += int(cached)
        seed = _point_seed(base_seed, experiment_id, point_key)
        if results_dir:
            _write_point_record(
                results_dir,
                experiment_id,
                point_key,
                status=status,
                elapsed_s=elapsed_s,
                cached=cached,
                seed=seed,
                value=value,
                error=error,
            )
        if journal_writer is not None:
            fingerprint = specs[experiment_id].point(point_key).fingerprint()
            journal_writer.append(
                {
                    "kind": "point",
                    "experiment_id": experiment_id,
                    "point": point_key,
                    "status": status,
                    "digest": (
                        sweep.ResultCache.digest(fingerprint)
                        if fingerprint is not None
                        else None
                    ),
                    "seed": seed,
                    "cached": cached,
                    "attempts": attempts,
                    "scale": scale,
                    "max_cores": max_cores,
                }
            )
        if campaign_events is not None:
            campaign_events.emit(
                "point_done",
                {
                    "attempts": attempts,
                    "cached": cached,
                    "elapsed_s": round(elapsed_s, 6),
                    "experiment": experiment_id,
                    "point": point_key,
                    "status": status,
                },
            )
        progress["done"] += 1
        if status != "ok":
            progress["failed"] += 1
        if cached:
            progress["cached"] += 1
        elapsed = time.monotonic() - progress_start
        rate = progress["done"] / elapsed if elapsed > 0 else 0.0
        line = (
            f"[runner] {progress['done']}/{n_total} tasks done"
            f" ({progress['failed']} failed, {progress['cached']} cached,"
            f" {rate:.2f}/s)"
        )
        if progress_tty:
            end = "\n" if progress["done"] == n_total else ""
            sys.stderr.write(f"\r\x1b[K{line}{end}")
            sys.stderr.flush()
        elif elapsed - progress_last[0] >= 5.0 or progress["done"] == n_total:
            progress_last[0] = elapsed
            print(line, file=sys.stderr)

    # fork (where available) keeps already-imported modules warm in workers.
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )
    boss = supervisor.Supervisor(
        _run_point_task,
        jobs,
        max_attempts=attempts_budget,
        mp_context=context,
        on_lifecycle=(
            _lifecycle if (obs_reg is not None or campaign_events is not None) else None
        ),
    )
    try:
        for task_outcome in (
            boss.run(tasks, _prefetch if cache_dir else None) if tasks else ()
        ):
            experiment_id, _, key = task_outcome.task_id.partition("/")
            attempts = task_outcome.attempts
            if task_outcome.status == "quarantined":
                _settle(
                    experiment_id,
                    key,
                    status="quarantined",
                    attempts=attempts,
                    error=f"quarantined after {attempts} attempt(s):\n  "
                    + "\n  ".join(task_outcome.failures),
                )
            elif task_outcome.status == "error":
                # The task function itself raised (outside the point's own
                # error capture) — deterministic, so never retried.
                _settle(
                    experiment_id,
                    key,
                    status="error",
                    attempts=attempts,
                    error=str(task_outcome.value),
                )
            else:
                _, _, status, elapsed, cached, payload, err_text = cast(
                    _PointDone, task_outcome.value
                )
                if err_text:
                    sys.stderr.write(err_text)
                ok = status == "ok"
                _settle(
                    experiment_id,
                    key,
                    status=status,
                    attempts=attempts,
                    elapsed_s=elapsed,
                    cached=cached,
                    value=payload if ok else None,
                    error=None if ok else str(payload),
                )
    finally:
        boss.shutdown()
        if campaign_events is not None:
            # One campaign_obs delta captures the parent's own counters
            # (supervisor lifecycle, resume-cache hits) for the fold.
            if obs_reg is not None and obs_baseline is not None:
                campaign_events.emit(
                    "campaign_obs", dict(obs_reg.delta(obs_baseline))
                )
            campaign_events.close()
        if journal_writer is not None:
            journal_writer.close()

    return [
        _report(
            *(
                _spec_failure(experiment_id, base_seed, spec_errors[experiment_id])
                if experiment_id in spec_errors
                else _assemble_experiment(
                    experiment_id,
                    specs[experiment_id],
                    point_results[experiment_id],
                    point_errors[experiment_id],
                    point_elapsed[experiment_id],
                    cached_counts[experiment_id],
                    base_seed,
                )
            ),
            results_dir,
        )
        for experiment_id in experiment_ids
    ]


def run_serial(
    experiment_ids: List[str],
    *,
    base_seed: int = 0,
    results_dir: Optional[str] = None,
    cache_dir: Optional[str] = None,
    resume: bool = False,
) -> List[ExperimentOutcome]:
    """Run experiments one after another in this process.

    A cache dir persists every completed point (replayed on ``resume``) and
    every workload trace as a ``.npz`` file under ``<cache-dir>/traces``, so
    later sweeps load instead of regenerating.  No journal is written and
    ``REPRO_FAULT`` is not consulted: both belong to the supervised pool.
    """
    result_cache = sweep.ResultCache(cache_dir, read=resume) if cache_dir else None
    trace_cache = sweep.shared_trace_cache()
    if cache_dir:
        trace_cache.store_dir = _trace_store_dir(cache_dir)
    try:
        return [
            run_experiment(
                experiment_id,
                base_seed,
                result_cache=result_cache,
                results_dir=results_dir,
            )
            for experiment_id in experiment_ids
        ]
    finally:
        if cache_dir:
            trace_cache.store_dir = None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids to run (default: all)",
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids and exit")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "run in N worker processes, load-balancing individual sweep "
            "points (default: 1, serial)"
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base seed; every experiment and sweep point derives its own deterministic seed",
    )
    parser.add_argument(
        "--results-dir",
        default=None,
        metavar="DIR",
        help=(
            "write one JSON record per experiment (and per sweep point) into DIR "
            f"(default with --jobs: {DEFAULT_RESULTS_DIR})"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "persist completed sweep points into DIR, keyed by a content hash "
            "of (config, workload params, protocol, seed, scale) "
            f"(default with --resume: {sweep.DEFAULT_CACHE_DIR})"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="reuse sweep points already present in the cache dir, simulating only what is missing",
    )
    args = parser.parse_args(argv)

    if args.list:
        for experiment_id in EXPERIMENT_MODULES:
            print(experiment_id)
        return 0

    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2

    selected = args.experiments or list(EXPERIMENT_MODULES)
    unknown = [e for e in selected if e not in EXPERIMENT_MODULES]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENT_MODULES)}", file=sys.stderr)
        return 2

    results_dir = args.results_dir
    if results_dir is None and args.jobs > 1:
        results_dir = DEFAULT_RESULTS_DIR
    cache_dir = args.cache_dir
    if cache_dir is None and args.resume:
        cache_dir = sweep.DEFAULT_CACHE_DIR

    if args.jobs > 1:
        try:
            outcomes = run_parallel(
                selected,
                args.jobs,
                base_seed=args.seed,
                results_dir=results_dir,
                cache_dir=cache_dir,
                resume=args.resume,
            )
        except faults.FaultSpecError as exc:
            print(f"invalid REPRO_FAULT specification: {exc}", file=sys.stderr)
            return 2
        except journal.JournalCorruptError as exc:
            print(
                f"result journal corrupt beyond the recoverable tail: {exc}\n"
                "refusing to resume over damaged records; move the journal "
                "directory aside to start fresh",
                file=sys.stderr,
            )
            return 3
        except faults.SimulatedCrash as exc:
            print(f"campaign aborted by injected crash: {exc}", file=sys.stderr)
            return 70
    else:
        outcomes = run_serial(
            selected,
            base_seed=args.seed,
            results_dir=results_dir,
            cache_dir=cache_dir,
            resume=args.resume,
        )

    failures = [outcome for outcome in outcomes if not outcome.ok]
    if failures:
        failed = ", ".join(outcome.experiment_id for outcome in failures)
        print(f"{len(failures)} experiment(s) failed: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
