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

With ``--jobs N``, each distinct trace is materialized once in the parent,
published into ``multiprocessing.shared_memory``, and mapped zero-copy by the
workers (disable with ``--no-shm``); traces never travel through pickles.

With ``--results-dir`` (implied by ``--jobs``), every experiment writes a
structured JSON record (id, status, elapsed seconds, captured output), and
point-granularity sweeps also write one record per sweep point under
``<results-dir>/points/`` so ``scripts/collect_results.py`` and CI can fold
them.

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
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple, Union, cast

if TYPE_CHECKING:
    from multiprocessing.shared_memory import SharedMemory

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

#: Trace transport for one point: a shared-memory handle (zero-copy), the
#: pickled columnar trace itself (fallback when shm publishing fails), or
#: None (the worker regenerates the trace).
_TraceTransport = Optional[Union["sweep.ShmTraceHandle", "sweep.ColumnarTrace"]]
#: One point-granularity work item shipped to a worker: (experiment id,
#: point key, base seed, scale, max cores, cache dir, resume flag, trace
#: transport).
_PointTask = Tuple[str, str, int, float, int, Optional[str], bool, _TraceTransport]
#: A completed point: (experiment id, point key, status, elapsed seconds,
#: replayed-from-cache flag, result payload or traceback text, stderr text).
_PointDone = Tuple[str, str, str, float, bool, object, str]
#: One whole-experiment work item: (experiment id, base seed, scale, max cores).
_WholeTask = Tuple[str, int, float, int]


@dataclass
class ExperimentOutcome:
    """Result of running one experiment."""

    experiment_id: str
    status: str  # "ok" or "error"
    elapsed_s: float
    seed: int
    scale: float
    max_cores: int
    error: Optional[str] = None
    #: Point-granularity sweeps record how many points ran and how many were
    #: replayed from the persistent cache (None for whole-experiment runs).
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


def run_experiment(experiment_id: str, base_seed: int = 0) -> ExperimentOutcome:
    """Import and run one experiment's ``main()``; never raises.

    A failure is reported in the returned outcome (and by :func:`main` as a
    nonzero exit code) instead of being swallowed or aborting sibling
    experiments.
    """
    seed = _experiment_seed(base_seed, experiment_id)
    _seed_everything(seed)
    module_path = EXPERIMENT_MODULES[experiment_id]
    start = time.perf_counter()
    try:
        module = importlib.import_module(module_path)
        module.main()
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"[{experiment_id}] FAILED after {elapsed:.1f}s", file=sys.stderr)
        traceback.print_exc()
        return ExperimentOutcome(
            experiment_id=experiment_id,
            status="error",
            elapsed_s=elapsed,
            seed=seed,
            scale=settings.scale(),
            max_cores=settings.max_cores(),
            error=traceback.format_exc(),
        )
    elapsed = time.perf_counter() - start
    print(f"[{experiment_id}] completed in {elapsed:.1f}s\n")
    return ExperimentOutcome(
        experiment_id=experiment_id,
        status="ok",
        elapsed_s=elapsed,
        seed=seed,
        scale=settings.scale(),
        max_cores=settings.max_cores(),
    )


def _run_captured(args: _WholeTask) -> Tuple[ExperimentOutcome, str, str]:
    """Run one whole experiment with stdout/stderr captured.

    The parent's scale/max_cores settings travel in ``args`` and are applied
    here: with the ``spawn`` start method a worker re-imports
    :mod:`repro.experiments.settings` from scratch, so anything the parent
    configured via ``set_scale``/``set_max_cores`` would otherwise be lost.
    """
    experiment_id, base_seed, scale, max_cores = args
    settings.set_scale(scale)
    settings.set_max_cores(max_cores)
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        outcome = run_experiment(experiment_id, base_seed)
    return outcome, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Point-granularity execution
# ---------------------------------------------------------------------------

#: Worker-side memo of sweep specs: every worker process rebuilds each
#: experiment's spec at most once (specs are deterministic given settings,
#: so a rebuilt spec names exactly the points the parent scheduled).
_worker_specs: Dict[str, sweep.SweepSpec] = {}


def _build_spec(experiment_id: str) -> Optional[sweep.SweepSpec]:
    """The experiment's sweep spec, or None if it does not expose one."""
    module = importlib.import_module(EXPERIMENT_MODULES[experiment_id])
    spec_fn = getattr(module, "sweep_spec", None)
    return spec_fn() if spec_fn is not None else None


#: Worker-side memo of attached shared-memory traces, keyed by segment name:
#: each worker maps a published trace at most once and reuses the view for
#: every sweep point that needs it.
_attached_traces: Dict[str, sweep.ColumnarTrace] = {}


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

    Returns ``(experiment_id, point_key, status, elapsed_s, cached,
    payload, stderr_text)`` where ``payload`` is the point result on
    success or the formatted traceback on error.  ``attempt`` is the
    supervisor's retry index for this point, which keys deterministic
    fault injection (``REPRO_FAULT``): a ``times=1`` fault fires on the
    first attempt and the retry runs clean.
    """
    experiment_id, point_key, base_seed, scale, max_cores, cache_dir, resume, handle = args
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
    sweep.shared_trace_cache().store_dir = _trace_store_dir(cache_dir)
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
                spec = _build_spec(experiment_id)
                if spec is None:
                    # The parent only schedules point tasks for experiments
                    # with a sweep spec; a worker-side rebuild losing it
                    # means the experiment module changed under our feet.
                    raise RuntimeError(
                        f"{experiment_id} no longer exposes a sweep spec"
                    )
                _worker_specs[experiment_id] = spec
            point = spec.point(point_key)
            if handle is not None:
                # The parent shipped this point's trace: as a shared-memory
                # handle (mapped zero-copy, once per worker) or — when shm
                # publishing failed in the parent — as the pickled trace
                # itself.  A transport failure degrades to regeneration;
                # anything unexpected propagates as the point's error.
                try:
                    if isinstance(handle, sweep.ColumnarTrace):
                        trace = handle
                    else:
                        shm_fault = (
                            plan.should("shm", experiment_id, point_key, attempt)
                            if plan
                            else None
                        )
                        if shm_fault is not None:
                            raise faults.FaultInjected(
                                f"injected shm-attach failure ({shm_fault.describe()})"
                            )
                        trace = _attached_traces.get(handle.shm_name)
                        if trace is None:
                            trace = sweep.attach_trace_shm(handle, in_worker=True)
                            _attached_traces[handle.shm_name] = trace
                    sweep.shared_trace_cache().put(
                        point.workload.key(point.n_cores), trace
                    )
                except (OSError, ValueError, faults.FaultInjected) as exc:
                    print(
                        f"[worker] {experiment_id}/{point_key}: trace "
                        f"transport failed ({exc}); regenerating",
                        file=err,
                    )
            value, cached = sweep.run_point(point, result_cache=cache)
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


def _supervised_task(payload: object, attempt: int) -> Tuple[str, object]:
    """Supervisor task function: run one point or whole-experiment task."""
    kind, task = cast(Tuple[str, object], payload)
    if kind == "point":
        return kind, _run_point_task(cast(_PointTask, task), attempt)
    return kind, _run_captured(cast(_WholeTask, task))


def run_parallel(
    experiment_ids: List[str],
    jobs: int,
    *,
    base_seed: int = 0,
    results_dir: Optional[str] = None,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    use_shm: bool = True,
) -> List[ExperimentOutcome]:
    """Run experiments at sweep-point granularity in ``jobs`` workers.

    Each experiment's grid is expanded into individual sweep points, which
    are load-balanced across a supervised worker pool
    (:class:`repro.experiments.supervisor.Supervisor`); per-experiment
    tables are rebuilt from the point results and printed in submission
    order.  Experiments without a sweep spec fall back to whole-experiment
    execution in a worker.

    Fault tolerance: every point carries a size-scaled wall-clock deadline;
    a worker that dies (OOM kill, segfault) or hangs past its deadline is
    detected, its point retried with deterministic backoff, and a point
    that keeps failing is quarantined — recorded and reported, while the
    rest of the campaign completes.  With ``results_dir``, every point
    outcome is also appended to a crash-safe journal
    (``<results_dir>/journal/``); a resumed campaign replays journalled
    points whose cache entries verify, without re-dispatching them.

    With ``use_shm`` (the default), every distinct workload trace is
    materialized once in the parent, published into a named
    ``multiprocessing.shared_memory`` segment, and mapped zero-copy by the
    workers.  A publish failure degrades to pickle transport (the trace
    travels in the task payload); an attach failure degrades to per-worker
    regeneration — results are identical on every path.
    """
    import multiprocessing

    plan = faults.refresh_active_plan()
    scale = settings.scale()
    max_cores = settings.max_cores()
    timeout_base = settings.point_timeout()
    attempts_budget = settings.max_attempts()

    specs: Dict[str, Optional[sweep.SweepSpec]] = {}
    spec_errors: Dict[str, str] = {}
    for experiment_id in experiment_ids:
        try:
            specs[experiment_id] = _build_spec(experiment_id)
        except Exception:
            # Reported as a failed experiment below; siblings keep running.
            specs[experiment_id] = None
            spec_errors[experiment_id] = traceback.format_exc()

    trace_handles: Dict[Tuple[object, ...], _TraceTransport] = {}
    shm_segments: List["SharedMemory"] = []
    if use_shm:
        reclaimed = sweep.reclaim_stale_segments()
        if reclaimed:
            print(
                f"[runner] reclaimed {len(reclaimed)} stale shared-memory "
                "segment(s) left by crashed runs",
                file=sys.stderr,
            )
        parent_cache = sweep.shared_trace_cache()
        parent_cache.store_dir = _trace_store_dir(cache_dir)
    resume_cache = (
        sweep.ResultCache(cache_dir, read=True) if (resume and cache_dir) else None
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

    def _handle_for(point: sweep.SweepPoint) -> _TraceTransport:
        if not use_shm or not isinstance(point, sweep.SimPoint):
            return None
        if resume_cache is not None and resume_cache.contains(point):
            # The point will replay from the result cache: don't pay to
            # materialize and publish a trace nobody will read.  (If the
            # cached record turns out stale, the worker regenerates.)
            return None
        try:
            key = point.workload.key(point.n_cores)
        except (TypeError, ValueError) as exc:
            print(
                f"[runner] {point.key}: workload key failed ({exc}); "
                "trace will regenerate in workers",
                file=sys.stderr,
            )
            return None
        if key not in trace_handles:
            try:
                trace = parent_cache.get(point.workload, point.n_cores)
            except Exception as exc:
                # Materialization failed in the parent; defer to the
                # workers, where the failure is reported per point.
                print(
                    f"[runner] {point.key}: trace materialization failed "
                    f"in parent ({exc}); deferring to workers",
                    file=sys.stderr,
                )
                trace_handles[key] = None
                return None
            try:
                shm_handle, segment = sweep.publish_trace_shm(trace, key)
                shm_segments.append(segment)
                trace_handles[key] = shm_handle
            except (OSError, MemoryError, ValueError) as exc:
                # Publish failure (e.g. /dev/shm exhausted): degrade to
                # pickle transport — the trace rides the task payload.
                print(
                    f"[runner] {point.key}: shm publish failed ({exc}); "
                    "falling back to pickle transport",
                    file=sys.stderr,
                )
                trace_handles[key] = trace
        return trace_handles[key]

    point_results: Dict[str, Dict[str, object]] = {e: {} for e in experiment_ids}
    point_errors: Dict[str, Dict[str, str]] = {e: {} for e in experiment_ids}
    point_elapsed: Dict[str, float] = {e: 0.0 for e in experiment_ids}
    cached_counts: Dict[str, int] = {e: 0 for e in experiment_ids}
    whole_outcomes: Dict[str, Tuple[ExperimentOutcome, str, str]] = {}

    def _point_digest(experiment_id: str, point_key: str) -> Optional[str]:
        """Content digest binding a journal record to its cache entry."""
        spec = specs.get(experiment_id)
        if spec is None:
            return None
        fingerprint = spec.point(point_key).fingerprint()
        if fingerprint is None:
            return None
        return sweep.ResultCache.digest(fingerprint)

    def _journal_point(
        experiment_id: str,
        point_key: str,
        *,
        status: str,
        cached: bool,
        attempts: int,
    ) -> None:
        if journal_writer is None:
            return
        journal_writer.append(
            {
                "kind": "point",
                "experiment_id": experiment_id,
                "point": point_key,
                "status": status,
                "digest": _point_digest(experiment_id, point_key),
                "seed": _point_seed(base_seed, experiment_id, point_key),
                "cached": cached,
                "attempts": attempts,
                "scale": scale,
                "max_cores": max_cores,
            }
        )

    tasks: List[supervisor.TaskSpec] = []
    for experiment_id in experiment_ids:
        if experiment_id in spec_errors:
            continue
        spec = specs[experiment_id]
        if spec is None:
            tasks.append(
                supervisor.TaskSpec(
                    task_id=f"whole:{experiment_id}",
                    payload=("whole", (experiment_id, base_seed, scale, max_cores)),
                    timeout_s=timeout_base * 8.0,
                )
            )
            continue
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
                    task_id=f"point:{experiment_id}/{point.key}",
                    payload=(
                        "point",
                        (
                            experiment_id,
                            point.key,
                            base_seed,
                            scale,
                            max_cores,
                            cache_dir,
                            resume,
                            _handle_for(point),
                        ),
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

    def _progress(status: str, cached: bool) -> None:
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

    def _point_done_event(
        experiment_id: str,
        point_key: str,
        *,
        status: str,
        elapsed_s: float,
        cached: bool,
        attempts: int,
    ) -> None:
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

    def _synthesized_error(experiment_id: str, error: str) -> ExperimentOutcome:
        return ExperimentOutcome(
            experiment_id=experiment_id,
            status="error",
            elapsed_s=0.0,
            seed=_experiment_seed(base_seed, experiment_id),
            scale=scale,
            max_cores=max_cores,
            error=error,
        )

    # fork (where available) keeps already-imported modules warm in workers.
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )
    boss = supervisor.Supervisor(
        _supervised_task,
        jobs,
        max_attempts=attempts_budget,
        mp_context=context,
        on_lifecycle=(
            _lifecycle if (obs_reg is not None or campaign_events is not None) else None
        ),
    )
    try:
        for task_outcome in boss.run(tasks) if tasks else ():
            kind, _, rest = task_outcome.task_id.partition(":")
            if kind == "point":
                experiment_id, _, key = rest.partition("/")
                if task_outcome.status == "quarantined":
                    message = (
                        f"quarantined after {task_outcome.attempts} attempt(s):\n  "
                        + "\n  ".join(task_outcome.failures)
                    )
                    point_errors[experiment_id][key] = message
                    if results_dir:
                        _write_point_record(
                            results_dir,
                            experiment_id,
                            key,
                            status="quarantined",
                            elapsed_s=0.0,
                            cached=False,
                            seed=_point_seed(base_seed, experiment_id, key),
                            error=message,
                        )
                    _journal_point(
                        experiment_id,
                        key,
                        status="quarantined",
                        cached=False,
                        attempts=task_outcome.attempts,
                    )
                    _point_done_event(
                        experiment_id,
                        key,
                        status="quarantined",
                        elapsed_s=0.0,
                        cached=False,
                        attempts=task_outcome.attempts,
                    )
                    _progress("quarantined", False)
                    continue
                if task_outcome.status == "error":
                    # The task function itself raised (outside the point's
                    # own error capture) — deterministic, so never retried.
                    point_errors[experiment_id][key] = str(task_outcome.value)
                    if results_dir:
                        _write_point_record(
                            results_dir,
                            experiment_id,
                            key,
                            status="error",
                            elapsed_s=0.0,
                            cached=False,
                            seed=_point_seed(base_seed, experiment_id, key),
                            error=str(task_outcome.value),
                        )
                    _journal_point(
                        experiment_id,
                        key,
                        status="error",
                        cached=False,
                        attempts=task_outcome.attempts,
                    )
                    _point_done_event(
                        experiment_id,
                        key,
                        status="error",
                        elapsed_s=0.0,
                        cached=False,
                        attempts=task_outcome.attempts,
                    )
                    _progress("error", False)
                    continue
                _, done = cast(Tuple[str, object], task_outcome.value)
                (
                    experiment_id,
                    key,
                    status,
                    elapsed,
                    cached,
                    payload,
                    err_text,
                ) = cast(_PointDone, done)
                point_elapsed[experiment_id] += elapsed
                cached_counts[experiment_id] += int(cached)
                if status == "ok":
                    point_results[experiment_id][key] = payload
                else:
                    point_errors[experiment_id][key] = str(payload)
                if err_text:
                    sys.stderr.write(err_text)
                if results_dir:
                    _write_point_record(
                        results_dir,
                        experiment_id,
                        key,
                        status=status,
                        elapsed_s=elapsed,
                        cached=cached,
                        seed=_point_seed(base_seed, experiment_id, key),
                        value=payload if status == "ok" else None,
                        error=str(payload) if status != "ok" else None,
                    )
                _journal_point(
                    experiment_id,
                    key,
                    status=status,
                    cached=cached,
                    attempts=task_outcome.attempts,
                )
                _point_done_event(
                    experiment_id,
                    key,
                    status=status,
                    elapsed_s=elapsed,
                    cached=cached,
                    attempts=task_outcome.attempts,
                )
                _progress(status, cached)
            else:  # whole-experiment task
                experiment_id = rest
                if task_outcome.status in ("quarantined", "error"):
                    message = (
                        f"{task_outcome.status} after {task_outcome.attempts} "
                        "attempt(s):\n  " + "\n  ".join(task_outcome.failures)
                        if task_outcome.status == "quarantined"
                        else str(task_outcome.value)
                    )
                    whole_outcomes[experiment_id] = (
                        _synthesized_error(experiment_id, message),
                        "",
                        f"[{experiment_id}] FAILED\n{message}\n",
                    )
                    _progress("error", False)
                    continue
                _, done = cast(Tuple[str, object], task_outcome.value)
                whole_outcome, out, err = cast(
                    Tuple[ExperimentOutcome, str, str], done
                )
                whole_outcomes[whole_outcome.experiment_id] = (whole_outcome, out, err)
                _progress("ok", False)
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
        # The parent owns every published segment: release them only after
        # all workers have drained (shutdown above joins them).
        for segment in shm_segments:
            sweep.release_trace_shm(segment)

    outcomes: List[ExperimentOutcome] = []
    for experiment_id in experiment_ids:
        if experiment_id in spec_errors:
            error = spec_errors[experiment_id]
            outcome = ExperimentOutcome(
                experiment_id=experiment_id,
                status="error",
                elapsed_s=0.0,
                seed=_experiment_seed(base_seed, experiment_id),
                scale=scale,
                max_cores=max_cores,
                error=error,
            )
            out, err = "", f"[{experiment_id}] FAILED building sweep spec\n" + error
        elif specs[experiment_id] is None:
            outcome, out, err = whole_outcomes[experiment_id]
        else:
            outcome, out, err = _assemble_experiment(
                experiment_id,
                specs[experiment_id],
                point_results[experiment_id],
                point_errors[experiment_id],
                point_elapsed[experiment_id],
                cached_counts[experiment_id],
                base_seed,
            )
        sys.stdout.write(out)
        if err:
            sys.stderr.write(err)
        if results_dir:
            _write_record(results_dir, outcome, out)
        outcomes.append(outcome)
    return outcomes


def run_serial(
    experiment_ids: List[str],
    *,
    base_seed: int = 0,
    results_dir: Optional[str] = None,
    cache_dir: Optional[str] = None,
    resume: bool = False,
) -> List[ExperimentOutcome]:
    """Run experiments one after another in this process.

    With ``resume``, a persistent point cache is installed process-wide so
    each experiment's ``run()`` skips sweep points that are already cached.
    A cache dir also persists workload traces as ``.npz`` files under
    ``<cache-dir>/traces``, so later sweeps load instead of regenerating.
    """
    if cache_dir:
        sweep.set_result_cache(sweep.ResultCache(cache_dir, read=resume))
        sweep.shared_trace_cache().store_dir = _trace_store_dir(cache_dir)
    try:
        outcomes: List[ExperimentOutcome] = []
        for experiment_id in experiment_ids:
            if results_dir:
                outcome, out, err = _run_captured(
                    (experiment_id, base_seed, settings.scale(), settings.max_cores())
                )
                sys.stdout.write(out)
                if err:
                    sys.stderr.write(err)
                _write_record(results_dir, outcome, out)
            else:
                outcome = run_experiment(experiment_id, base_seed)
            outcomes.append(outcome)
        return outcomes
    finally:
        if cache_dir:
            sweep.set_result_cache(None)
            sweep.shared_trace_cache().store_dir = None


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
    parser.add_argument(
        "--no-shm",
        action="store_true",
        help=(
            "with --jobs: disable shared-memory trace transport and let each "
            "worker materialize its own traces (results are identical)"
        ),
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
                use_shm=not args.no_shm,
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
