"""Sharded exhaustive model checking on the campaign fabric.

The serial :class:`~repro.verification.checker.ModelChecker` explores one
frontier state at a time; this module distributes the same breadth-first
search across supervised worker processes.  The search is **level
synchronous**: all states at BFS depth ``k`` are expanded before any state at
depth ``k + 1``, and within a level the frontier is partitioned by
``state_digest(state) % jobs`` — a content digest of the canonical encoding
(:func:`repro.verification.encode.state_digest`), never built-in ``hash``,
so the partition is identical in every process and on every run.

Everything rides on the PR-8 fabric rather than reinventing it:

* Shard expansion runs under :func:`repro.experiments.supervisor.supervise`
  — per-shard deadlines, worker-death detection, deterministic retry.  A
  SIGKILLed shard worker is retried transparently; a shard that exhausts its
  attempts raises :class:`ShardFailedError` (a wrong state count must never
  look like a verified protocol).
* After every level the newly discovered frontier is appended to a
  crash-safe WAL journal (:mod:`repro.experiments.journal`), so a checker
  killed at any instant — including mid-write, via the ``torn`` fault — can
  resume from the journal and finish with bit-identical counts.

Determinism contract: folding shard results sorts successors by the global
index of their parent state, and each worker emits a parent's successors in
canonical (:meth:`CoherenceModel.ordered_successors`) order.  The discovery
order of every level — and therefore the journalled frontier records — is a
pure function of the model configuration, independent of ``jobs``,
scheduling, retries, and resumes.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments import faults as _faults
from repro.experiments import journal as _journal
from repro.experiments.supervisor import TaskSpec, supervise
from repro.verification import encode
from repro.verification.checker import ExplorationResult, ModelChecker
from repro.verification.invariants import check_invariants
from repro.verification.model import CoherenceModel, ModelConfig

#: One frontier entry: ``[state jsonable, parent index in previous level or
#: None, rule that produced it or None]``.  The initial state is the sole
#: level-0 entry with no parent.  This is both the in-memory and the
#: journalled representation, so resume reconstructs parent chains exactly.
LevelEntry = Tuple[Any, Optional[int], Optional[str]]

#: Wall-clock budget for one shard expansion attempt.  Level shards at the
#: model sizes this lane targets finish in milliseconds; the deadline only
#: exists so a wedged worker is reaped instead of hanging the run.
DEFAULT_SHARD_TIMEOUT_S = 120.0


class ShardFailedError(RuntimeError):
    """A frontier shard was lost (quarantined or errored) — counts are void."""


@dataclass
class ShardedExploration:
    """Everything a sharded run produces beyond the bare counts."""

    result: ExplorationResult
    jobs: int
    n_levels: int
    #: One BFS rule trace per entry of ``result.violations`` (same order):
    #: the discovery path from the initial state to the violating state.
    violation_traces: List[List[str]] = field(default_factory=list)
    #: True when this run finished by folding a journal that was already
    #: complete (nothing was re-explored).
    resumed_complete: bool = False


def shard_of(state_jsonable: Mapping[str, Any], n_shards: int) -> int:
    """The shard owning a state: content digest modulo the shard count."""
    import zlib

    digest = zlib.crc32(encode.canonical_dumps(state_jsonable).encode("utf-8"))
    return digest % n_shards


def experiment_id(config: ModelConfig, mutation: Optional[str]) -> str:
    """The journal/fault experiment id of one sharded verification run."""
    base = f"verify-{config.protocol}-{config.n_cores}c-{config.n_ops}o"
    if mutation is not None:
        base += f"-mut.{mutation}"
    return base


# -- worker side ---------------------------------------------------------------


def _expand_payload(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Expand one shard of frontier states; pure function of the payload."""
    config = encode.config_from_jsonable(payload["config"])
    mutation = payload["mutation"]
    model = CoherenceModel(config, mutation=mutation)
    violations: List[Any] = []
    successors: List[Any] = []
    transitions = 0
    deadlocks = 0
    for index, state_data in payload["states"]:
        state = encode.state_from_jsonable(state_data)
        for violation in check_invariants(state, config):
            violations.append([index, encode.violation_to_jsonable(violation)])
        successor_count = 0
        for rule, successor in model.ordered_successors(state):
            transitions += 1
            successor_count += 1
            successors.append([index, rule, encode.state_to_jsonable(successor)])
        if successor_count == 0 and not ModelChecker._is_quiescent(state):
            deadlocks += 1
    return {
        "violations": violations,
        "successors": successors,
        "transitions": transitions,
        "deadlocks": deadlocks,
    }


def _shard_worker(payload: Any, attempt: int) -> Dict[str, Any]:
    """Supervised worker body: apply injected worker faults, then expand."""
    plan = _faults.active_plan()
    if plan:
        exp = payload["experiment_id"]
        point = payload["point"]
        if plan.should("kill", exp, point, attempt) is not None:
            _faults.fire_kill()
        hang = plan.should("hang", exp, point, attempt)
        if hang is not None:
            _faults.fire_hang(hang.secs)
    return _expand_payload(payload)


# -- parent side ---------------------------------------------------------------


def _fold_level(
    entries: Sequence[LevelEntry],
    shard_results: Sequence[Optional[Mapping[str, Any]]],
    visited: Dict[str, None],
) -> Tuple[List[LevelEntry], List[Tuple[int, Dict[str, Any]]], int, int]:
    """Fold one level's shard results into the next level.

    Returns ``(next level entries, violations as (parent index, jsonable),
    transitions, deadlocks)``.  Successors are folded in ``(parent index,
    canonical successor order)`` — each worker emits one parent's successors
    contiguously and in canonical order, so a stable sort of the
    concatenated shard lists by parent index restores a ``jobs``-independent
    discovery order.
    """
    merged: List[Any] = []
    violations: List[Tuple[int, Dict[str, Any]]] = []
    transitions = 0
    deadlocks = 0
    for result in shard_results:
        if result is None:
            continue
        merged.extend(result["successors"])
        violations.extend((entry[0], entry[1]) for entry in result["violations"])
        transitions += result["transitions"]
        deadlocks += result["deadlocks"]
    merged.sort(key=lambda entry: entry[0])
    violations.sort(key=lambda entry: entry[0])
    next_level: List[LevelEntry] = []
    for parent_index, rule, state_data in merged:
        key = encode.canonical_dumps(state_data)
        if key not in visited:
            visited[key] = None
            next_level.append((state_data, parent_index, rule))
    return next_level, violations, transitions, deadlocks


def counterexample_trace(
    levels: Sequence[Sequence[LevelEntry]], level: int, index: int
) -> List[str]:
    """The BFS rule path from the initial state to ``levels[level][index]``."""
    rules: List[str] = []
    at: Optional[int] = index
    for depth in range(level, 0, -1):
        assert at is not None
        _, parent, rule = levels[depth][at]
        assert rule is not None
        rules.append(rule)
        at = parent
    return list(reversed(rules))


def _level_record(
    exp_id: str,
    config_jsonable: Mapping[str, Any],
    mutation: Optional[str],
    level: int,
    entries: Sequence[LevelEntry],
    violations: Sequence[Tuple[int, Mapping[str, Any]]],
    states_total: int,
    transitions_total: int,
    deadlocks_total: int,
    done: bool,
    completed: bool,
) -> Dict[str, Any]:
    return {
        "kind": "point",
        "experiment_id": exp_id,
        "point": f"level-{level:04d}",
        "status": "ok",
        "schema": encode.REPRO_SCHEMA,
        "config": dict(config_jsonable),
        "mutation": mutation,
        "level": level,
        "frontier": [[data, parent, rule] for data, parent, rule in entries],
        "violations": [
            {"index": index, "violation": dict(violation)}
            for index, violation in violations
        ],
        "states_total": states_total,
        "transitions_total": transitions_total,
        "deadlocks_total": deadlocks_total,
        "done": done,
        "completed": completed,
    }


@dataclass
class _ResumeState:
    """Search state reconstructed from a journal's intact prefix."""

    levels: List[List[LevelEntry]]
    visited: Dict[str, None]
    violations: List[Tuple[int, int, Dict[str, Any]]]  # (level, index, jsonable)
    transitions: int
    deadlocks: int
    done: bool
    completed: bool


def _fold_journal(
    journal_dir: str, exp_id: str, config_jsonable: Mapping[str, Any]
) -> Optional[_ResumeState]:
    """Rebuild the search state from a journal directory, if any."""
    replay = _journal.replay_dir(journal_dir)
    by_level: Dict[int, Mapping[str, Any]] = {}
    for record in replay.records:
        if record.get("kind") != "point" or record.get("experiment_id") != exp_id:
            continue
        level = record.get("level")
        if isinstance(level, int):
            by_level[level] = record
    if not by_level:
        return None
    max_level = max(by_level)
    levels: List[List[LevelEntry]] = []
    visited: Dict[str, None] = {}
    violations: List[Tuple[int, int, Dict[str, Any]]] = []
    for level in range(max_level + 1):
        record = by_level.get(level)
        if record is None:
            raise _journal.JournalCorruptError(
                f"{journal_dir}: journal for {exp_id} is missing level {level} "
                f"(levels up to {max_level} are present)"
            )
        if record.get("config") != dict(config_jsonable):
            raise ValueError(
                f"{journal_dir}: journalled config {record.get('config')!r} does "
                f"not match the requested configuration {dict(config_jsonable)!r}"
            )
        entries: List[LevelEntry] = []
        for data, parent, rule in record["frontier"]:  # type: ignore[union-attr]
            entries.append((data, parent, rule))
            visited[encode.canonical_dumps(data)] = None
        levels.append(entries)
        for item in record["violations"]:  # type: ignore[union-attr]
            violations.append((level - 1, item["index"], item["violation"]))
    last = by_level[max_level]
    return _ResumeState(
        levels=levels,
        visited=visited,
        violations=violations,
        transitions=int(last["transitions_total"]),  # type: ignore[arg-type]
        deadlocks=int(last["deadlocks_total"]),  # type: ignore[arg-type]
        done=bool(last.get("done")),
        completed=bool(last.get("completed")),
    )


def check_sharded(
    config: ModelConfig,
    *,
    jobs: int = 1,
    mutation: Optional[str] = None,
    max_states: int = 2_000_000,
    stop_on_violation: bool = True,
    journal_dir: Optional[str] = None,
    resume: bool = False,
    torn_hook: Optional[_faults.TornHook] = None,
    max_attempts: int = 3,
    shard_timeout_s: float = DEFAULT_SHARD_TIMEOUT_S,
    on_event: Optional[Any] = None,
) -> ShardedExploration:
    """Explore ``config`` exhaustively across ``jobs`` supervised shards.

    With ``journal_dir`` set, every completed level is checkpointed; pass
    ``resume=True`` to fold an existing journal and continue from its last
    intact level (the acceptance path for a run killed mid-level or
    mid-write).  Without ``resume``, a journal directory that already holds
    segments is refused — appending a second run's levels over a first
    run's would make the fold ambiguous.

    Counts (states, transitions, deadlocks) are bit-identical to the serial
    :class:`ModelChecker` for any ``jobs`` on violation-free models, and
    identical across ``jobs`` values always.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    start = time.perf_counter()
    exp_id = experiment_id(config, mutation)
    config_jsonable = encode.config_to_jsonable(config)

    writer: Optional[_journal.JournalWriter] = None
    state: Optional[_ResumeState] = None
    if journal_dir is not None:
        if resume:
            state = _fold_journal(journal_dir, exp_id, config_jsonable)
        elif os.path.isdir(journal_dir) and any(
            name.endswith(".wal") for name in sorted(os.listdir(journal_dir))
        ):
            raise ValueError(
                f"{journal_dir}: journal already holds segments; pass "
                "resume=True to continue that run or point at a fresh directory"
            )
        writer = _journal.JournalWriter(
            _journal.fresh_segment_path(journal_dir, os.getpid()),
            torn_hook=torn_hook,
        )

    resumed_complete = state is not None and state.done
    try:
        if state is None:
            model = CoherenceModel(config, mutation=mutation)
            initial = encode.state_to_jsonable(model.initial_state())
            level0: List[LevelEntry] = [(initial, None, None)]
            state = _ResumeState(
                levels=[level0],
                visited={encode.canonical_dumps(initial): None},
                violations=[],
                transitions=0,
                deadlocks=0,
                done=False,
                completed=True,
            )
            if writer is not None:
                writer.append(
                    _level_record(
                        exp_id, config_jsonable, mutation, 0, level0, [],
                        1, 0, 0, False, True,
                    )
                )

        while not state.done:
            level = len(state.levels) - 1
            entries = state.levels[level]
            if not entries:
                state.done = True
                break
            shard_states: List[List[Any]] = [[] for _ in range(jobs)]
            for index, (data, _parent, _rule) in enumerate(entries):
                shard_states[shard_of(data, jobs)].append([index, data])
            shard_results: List[Optional[Mapping[str, Any]]] = [None] * jobs
            if jobs == 1:
                shard_results[0] = _expand_payload(
                    {
                        "config": config_jsonable,
                        "mutation": mutation,
                        "states": shard_states[0],
                    }
                )
            else:
                tasks = []
                for shard in range(jobs):
                    if not shard_states[shard]:
                        continue
                    tasks.append(
                        TaskSpec(
                            task_id=f"L{level:04d}.S{shard}",
                            payload={
                                "config": config_jsonable,
                                "mutation": mutation,
                                "states": shard_states[shard],
                                "experiment_id": exp_id,
                                "point": f"level-{level:04d}/shard-{shard}",
                            },
                            timeout_s=shard_timeout_s,
                        )
                    )
                for outcome in supervise(
                    tasks,
                    _shard_worker,
                    jobs=jobs,
                    max_attempts=max_attempts,
                    on_event=on_event,
                ):
                    if outcome.status != "ok":
                        raise ShardFailedError(
                            f"{exp_id}: shard task {outcome.task_id} ended "
                            f"{outcome.status!r} after {outcome.attempts} "
                            f"attempt(s); state counts would be wrong. "
                            f"Failures: {list(outcome.failures)!r}; "
                            f"value: {outcome.value!r}"
                        )
                    shard = int(outcome.task_id.rsplit(".S", 1)[1])
                    shard_results[shard] = outcome.value

            next_level, level_violations, transitions, deadlocks = _fold_level(
                entries, shard_results, state.visited
            )
            state.levels.append(next_level)
            state.transitions += transitions
            state.deadlocks += deadlocks
            state.violations.extend(
                (level, index, violation) for index, violation in level_violations
            )
            if level_violations and stop_on_violation:
                state.done = True
                state.completed = False
            if len(state.visited) > max_states:
                state.done = True
                state.completed = False
            if not next_level:
                state.done = True
            if writer is not None:
                writer.append(
                    _level_record(
                        exp_id, config_jsonable, mutation, level + 1,
                        next_level, level_violations, len(state.visited),
                        state.transitions, state.deadlocks, state.done,
                        state.completed,
                    )
                )
    finally:
        if writer is not None:
            writer.close()

    violations = [
        encode.violation_from_jsonable(violation)
        for _level, _index, violation in state.violations
    ]
    traces = [
        counterexample_trace(state.levels, level, index)
        for level, index, _violation in state.violations
    ]
    result = ExplorationResult(
        config=config,
        n_states=len(state.visited),
        n_transitions=state.transitions,
        elapsed_seconds=time.perf_counter() - start,
        violations=violations,
        deadlocks=state.deadlocks,
        completed=state.completed,
        max_frontier=max(len(level) for level in state.levels),
    )
    return ShardedExploration(
        result=result,
        jobs=jobs,
        n_levels=len(state.levels),
        violation_traces=traces,
        resumed_complete=resumed_complete,
    )
