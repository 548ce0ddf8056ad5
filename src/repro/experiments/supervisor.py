"""Supervised worker pool for the campaign runner.

``multiprocessing.Pool`` treats a dead worker as a fatal event and a hung
worker as invisible: one OOM-killed or wedged sweep point stalls or poisons
the whole campaign.  This module replaces the pool with a small supervisor
that owns every task end to end:

* **Per-task deadlines** — each :class:`TaskSpec` carries its own wall-clock
  timeout (the runner scales it by point size); a worker that blows the
  deadline is SIGKILLed and its task retried.
* **Worker-death detection** — the supervisor waits on each worker's process
  sentinel alongside its result pipe, so a worker that dies without
  replying (SIGKILL, segfault, OOM) is detected immediately via its exit,
  not via a broken-pipe error minutes later.
* **Bounded, deterministic retry** — infrastructure failures (death,
  timeout) are retried up to ``max_attempts`` with exponential backoff
  measured in *scheduling events* (dispatches + completions), not seconds:
  after failure ``k`` a task becomes eligible once ``backoff_base << (k-1)``
  further events have occurred.  No clock reads, no random jitter — given
  the same completion order the schedule is exactly reproducible.
* **Quarantine** — a task that exhausts its attempts is reported as
  ``quarantined`` with every failure it accumulated, and the campaign keeps
  going; poison points degrade the run instead of killing it.

Errors *inside* the task function are in-band results, not infrastructure
failures: they are reported once with status ``error`` and never retried
(the task functions are deterministic, so re-running a failing point can
only waste its timeout again).

:meth:`Supervisor.run` can also take a ``prepare`` callable, run in the
supervising process once per task before the task is first dispatched; the
supervisor calls it while workers run earlier tasks (the runner stores each
point's trace this way).

Workers are plain ``Process`` objects driven over a per-worker ``Pipe``;
they are respawned lazily after a death or a reaping, so a campaign with no
faults pays nothing beyond the pipes.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

#: The task function every worker runs: ``(payload, attempt) -> value``.
#: The attempt index (0 for the first try) travels to the worker so
#: deterministic fault injection can fire on specific attempts.
WorkerFn = Callable[[Any, int], Any]

#: Structured one-line event sink (worker deaths, reaps, retries, spawns).
EventFn = Callable[[str], None]

#: Structured lifecycle hook for telemetry: ``(event, fields)`` with events
#: ``spawn`` / ``dispatch`` / ``complete`` / ``retry`` / ``quarantine``.
#: ``None`` (the default) costs nothing; the runner wires this to the obs
#: event stream when ``REPRO_OBS=full``.  Purely observational — the hook
#: must never influence scheduling, and the supervisor ignores its return.
LifecycleFn = Callable[[str, Dict[str, object]], None]

#: Worker exit deadline during shutdown before escalating to SIGKILL.
_SHUTDOWN_GRACE_S = 5.0


@dataclass(frozen=True, slots=True)
class TaskSpec:
    """One unit of supervised work."""

    task_id: str
    payload: Any
    #: Wall-clock budget for a single attempt, in seconds.
    timeout_s: float


@dataclass(frozen=True, slots=True)
class TaskOutcome:
    """Terminal state of one task.

    ``status`` is ``"ok"`` (the task function returned ``value``),
    ``"error"`` (the task function raised; ``value`` is the traceback text),
    or ``"quarantined"`` (infrastructure failures exhausted every attempt;
    ``value`` is ``None``).  ``failures`` lists every infrastructure failure
    the task survived or succumbed to, oldest first.
    """

    task_id: str
    status: str
    attempts: int
    value: Any
    failures: Tuple[str, ...]


@dataclass(slots=True)
class _Pending:
    """A task waiting to be dispatched (or re-dispatched)."""

    spec: TaskSpec
    attempt: int
    #: Scheduling-event count at which this task may be dispatched.
    eligible_at: int


@dataclass(slots=True)
class _Slot:
    """One live worker process and the task it is executing, if any."""

    process: Any
    conn: Connection
    busy: Optional[_Pending] = None
    deadline: float = field(default=0.0)


def _worker_loop(conn: Connection, worker_fn: WorkerFn) -> None:
    """Worker process body: execute tasks from the pipe until told to stop."""
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        task_id, attempt, payload = message
        try:
            value = worker_fn(payload, attempt)
        except BaseException:
            conn.send((task_id, attempt, "error", traceback.format_exc()))
            continue
        conn.send((task_id, attempt, "ok", value))


def _default_event_sink(message: str) -> None:
    sys.stderr.write(f"[supervisor] {message}\n")


class Supervisor:
    """Run tasks across ``jobs`` supervised workers (see module docstring)."""

    def __init__(
        self,
        worker_fn: WorkerFn,
        jobs: int,
        *,
        max_attempts: int = 3,
        backoff_base: int = 1,
        mp_context: Any = None,
        on_event: Optional[EventFn] = None,
        on_lifecycle: Optional[LifecycleFn] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if backoff_base < 1:
            raise ValueError("backoff_base must be >= 1")
        if mp_context is None:
            import multiprocessing

            mp_context = multiprocessing.get_context(
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else None
            )
        self.worker_fn = worker_fn
        self.jobs = jobs
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self._context = mp_context
        self._event = on_event if on_event is not None else _default_event_sink
        self._lifecycle = on_lifecycle
        self._slots: List[_Slot] = []
        #: Scheduling-event counter: dispatches + completions + failures.
        #: Retry eligibility is measured against this, never the clock.
        self._events = 0
        #: Infrastructure failures accumulated per in-flight task id.
        self._failures: Dict[str, List[str]] = {}
        #: Failed tasks awaiting their backoff window.
        self._pending_retries: List[_Pending] = []

    # -- worker lifecycle ---------------------------------------------------

    def _spawn_slot(self) -> _Slot:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_loop,
            args=(child_conn, self.worker_fn),
            daemon=True,
        )
        process.start()
        child_conn.close()  # the worker holds its own copy
        slot = _Slot(process=process, conn=parent_conn)
        self._slots.append(slot)
        if self._lifecycle is not None:
            self._lifecycle("spawn", {"pid": process.pid})
        return slot

    def _discard_slot(self, slot: _Slot, *, kill: bool) -> None:
        """Retire a slot whose worker died or must die; it is never reused."""
        if kill and slot.process.is_alive():
            slot.process.kill()
        slot.process.join()
        slot.conn.close()
        self._slots.remove(slot)

    def shutdown(self) -> None:
        """Stop every worker (idempotent; called by ``run``'s finally)."""
        for slot in self._slots:
            try:
                slot.conn.send(None)
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + _SHUTDOWN_GRACE_S
        for slot in self._slots:
            slot.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if slot.process.is_alive():
                slot.process.kill()
                slot.process.join()
            slot.conn.close()
        self._slots.clear()

    # -- scheduling ---------------------------------------------------------

    def _pick_pending(self, pending: List[_Pending], have_busy: bool) -> Optional[int]:
        """Index of the next dispatchable pending task, or None.

        Backoff-eligible tasks go first (leftmost).  When nothing is eligible
        but no worker is busy either, waiting would deadlock — the event
        counter only advances through dispatches and completions — so the
        leftmost pending task is taken regardless (starvation guard).
        """
        for index, item in enumerate(pending):
            if item.eligible_at <= self._events:
                return index
        if pending and not have_busy:
            return 0
        return None

    def _dispatch(self, pending: List[_Pending]) -> None:
        while pending:
            idle = next((s for s in self._slots if s.busy is None), None)
            if idle is None and len(self._slots) >= self.jobs:
                return
            have_busy = any(s.busy is not None for s in self._slots)
            index = self._pick_pending(pending, have_busy)
            if index is None:
                return
            item = pending.pop(index)
            slot = idle if idle is not None else self._spawn_slot()
            try:
                slot.conn.send((item.spec.task_id, item.attempt, item.spec.payload))
            except (OSError, ValueError):
                # The worker died between completions; retire the slot and
                # put the task back without consuming one of its attempts.
                self._event(
                    f"worker pid={slot.process.pid} unreachable at dispatch "
                    f"of {item.spec.task_id}; respawning"
                )
                self._discard_slot(slot, kill=True)
                pending.insert(0, item)
                continue
            slot.busy = item
            slot.deadline = time.monotonic() + item.spec.timeout_s
            self._events += 1
            if self._lifecycle is not None:
                self._lifecycle(
                    "dispatch",
                    {
                        "attempt": item.attempt,
                        "pid": slot.process.pid,
                        "task": item.spec.task_id,
                        "timeout_s": item.spec.timeout_s,
                    },
                )

    # -- completion and failure --------------------------------------------

    def _complete(self, slot: _Slot) -> Optional[TaskOutcome]:
        """Consume a reply from a busy slot; returns the outcome, if valid."""
        item = slot.busy
        assert item is not None
        try:
            message = slot.conn.recv()
        except (EOFError, OSError):
            return self._fail(slot, "died mid-reply")
        slot.busy = None
        self._events += 1
        task_id, attempt, status, value = message
        if task_id != item.spec.task_id:  # pragma: no cover - defensive
            raise RuntimeError(
                f"worker pid={slot.process.pid} replied for {task_id!r} "
                f"while assigned {item.spec.task_id!r}"
            )
        failures = self._failures.pop(item.spec.task_id, [])
        if self._lifecycle is not None:
            self._lifecycle(
                "complete",
                {
                    "attempts": item.attempt + 1,
                    "pid": slot.process.pid,
                    "status": status,
                    "task": item.spec.task_id,
                },
            )
        return TaskOutcome(
            task_id=item.spec.task_id,
            status=status,
            attempts=item.attempt + 1,
            value=value,
            failures=tuple(failures),
        )

    def _fail(self, slot: _Slot, reason: str) -> Optional[TaskOutcome]:
        """Handle an infrastructure failure of the slot's current task.

        Returns a ``quarantined`` outcome when the task is out of attempts,
        otherwise re-queues it with deterministic backoff and returns None.
        The slot is always retired (the worker is dead or about to be).
        """
        item = slot.busy
        assert item is not None
        slot.busy = None
        self._events += 1
        attempts_done = item.attempt + 1
        failure = (
            f"attempt {attempts_done}/{self.max_attempts}: worker "
            f"pid={slot.process.pid} {reason}"
        )
        self._discard_slot(slot, kill=True)
        failures = self._failures.setdefault(item.spec.task_id, [])
        failures.append(failure)
        if attempts_done >= self.max_attempts:
            self._event(
                f"quarantining {item.spec.task_id} after {attempts_done} "
                f"attempt(s): {reason}"
            )
            del self._failures[item.spec.task_id]
            if self._lifecycle is not None:
                self._lifecycle(
                    "quarantine",
                    {
                        "attempts": attempts_done,
                        "reason": reason,
                        "task": item.spec.task_id,
                    },
                )
            return TaskOutcome(
                task_id=item.spec.task_id,
                status="quarantined",
                attempts=attempts_done,
                value=None,
                failures=tuple(failures),
            )
        delay = self.backoff_base << (attempts_done - 1)
        self._event(
            f"{item.spec.task_id} {reason}; retry {attempts_done + 1}/"
            f"{self.max_attempts} after {delay} scheduling event(s)"
        )
        self._pending_retries.append(
            _Pending(
                spec=item.spec,
                attempt=attempts_done,
                eligible_at=self._events + delay,
            )
        )
        if self._lifecycle is not None:
            self._lifecycle(
                "retry",
                {
                    "attempt": attempts_done,
                    "delay_events": delay,
                    "reason": reason,
                    "task": item.spec.task_id,
                },
            )
        return None

    # -- main loop ----------------------------------------------------------

    def run(
        self,
        tasks: Sequence[TaskSpec],
        prepare: Optional[Callable[[TaskSpec], None]] = None,
    ) -> Iterator[TaskOutcome]:
        """Execute every task, yielding outcomes as they become terminal.

        Outcomes arrive in completion order (like ``imap_unordered``); the
        caller folds them by ``task_id``.  Workers are always torn down on
        the way out, including when the caller abandons the iterator.

        ``prepare``, if given, runs in this process once per task, in
        submission order, before the task can be dispatched.  The
        supervisor calls it while the workers run earlier tasks, so
        preparation overlaps execution instead of preceding it.
        Completions, worker deaths and deadlines are serviced between
        calls; a call itself blocks the loop, so a worker that finishes
        during one waits for it to return.
        """
        seen: Dict[str, int] = {}
        for spec in tasks:
            if spec.task_id in seen:
                raise ValueError(f"duplicate task id {spec.task_id!r}")
            seen[spec.task_id] = 1
        unprepared = [_Pending(spec=spec, attempt=0, eligible_at=0) for spec in tasks]
        remaining = len(unprepared)
        if prepare is None:
            pending, unprepared = unprepared, []
        else:
            pending = []
            unprepared.reverse()  # popped from the end, in submission order
        self._failures.clear()
        self._pending_retries = []
        try:
            while remaining:
                pending.extend(self._pending_retries)
                self._pending_retries = []
                self._dispatch(pending)
                busy = [s for s in self._slots if s.busy is not None]
                if unprepared:
                    assert prepare is not None
                    item = unprepared.pop()
                    prepare(item.spec)
                    pending.append(item)
                    timeout = 0.0
                elif not busy:  # pragma: no cover - scheduling invariant
                    raise RuntimeError(
                        f"supervisor stalled with {remaining} task(s) unfinished"
                    )
                else:
                    timeout = max(0.0, min(s.deadline for s in busy) - time.monotonic())
                handles: List[Any] = [s.conn for s in busy]
                handles.extend(s.process.sentinel for s in busy)
                ready = set(wait(handles, timeout=timeout))
                for slot in busy:
                    if slot.busy is None:
                        continue
                    outcome: Optional[TaskOutcome] = None
                    if slot.conn in ready:
                        outcome = self._complete(slot)
                    elif slot.process.sentinel in ready:
                        # Dead worker — but its reply may already be in the
                        # pipe (sent just before exiting); prefer the reply.
                        if slot.conn.poll():
                            outcome = self._complete(slot)
                        else:
                            outcome = self._fail(slot, "died (worker exit)")
                    elif time.monotonic() >= slot.deadline:
                        if slot.conn.poll():  # finished at the wire
                            outcome = self._complete(slot)
                        else:
                            outcome = self._fail(
                                slot,
                                f"exceeded {slot.busy.spec.timeout_s:.0f}s "
                                "deadline (reaped)",
                            )
                    if outcome is not None:
                        remaining -= 1
                        yield outcome
        finally:
            self.shutdown()


def supervise(
    tasks: Sequence[TaskSpec],
    worker_fn: WorkerFn,
    jobs: int,
    *,
    max_attempts: int = 3,
    backoff_base: int = 1,
    mp_context: Any = None,
    on_event: Optional[EventFn] = None,
    on_lifecycle: Optional[LifecycleFn] = None,
) -> Iterator[TaskOutcome]:
    """Convenience wrapper: build a :class:`Supervisor` and run the tasks."""
    supervisor = Supervisor(
        worker_fn,
        jobs,
        max_attempts=max_attempts,
        backoff_base=backoff_base,
        mp_context=mp_context,
        on_event=on_event,
        on_lifecycle=on_lifecycle,
    )
    return supervisor.run(tasks)
