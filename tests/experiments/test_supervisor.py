"""Tests for the supervised worker pool (death, timeout, retry, quarantine)."""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.experiments.supervisor import Supervisor, TaskSpec, supervise

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="supervisor tests drive real worker processes via fork",
)


def _square(payload: object, attempt: int) -> object:
    return payload * payload  # type: ignore[operator]


def _echo_attempt(payload: object, attempt: int) -> object:
    return (payload, attempt)


def _raise_value_error(payload: object, attempt: int) -> object:
    raise ValueError(f"bad payload {payload!r}")


def _die_on_first_attempt(payload: object, attempt: int) -> object:
    if payload == "poison" and attempt == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return (payload, attempt)


def _always_die(payload: object, attempt: int) -> object:
    os.kill(os.getpid(), signal.SIGKILL)
    return None  # pragma: no cover


def _hang_on_first_attempt(payload: object, attempt: int) -> object:
    if attempt == 0:
        time.sleep(60)
    return (payload, attempt)


def _hang_on_zero(payload: object, attempt: int) -> object:
    if payload == 0:
        time.sleep(60)
    return payload


def _run(tasks, worker_fn, jobs=2, **kwargs):
    return {o.task_id: o for o in supervise(tasks, worker_fn, jobs, **kwargs)}


class TestHappyPath:
    def test_all_tasks_complete(self):
        tasks = [TaskSpec(task_id=f"t{i}", payload=i, timeout_s=60) for i in range(5)]
        outcomes = _run(tasks, _square)
        assert len(outcomes) == 5
        for i in range(5):
            outcome = outcomes[f"t{i}"]
            assert outcome.status == "ok"
            assert outcome.value == i * i
            assert outcome.attempts == 1
            assert outcome.failures == ()

    def test_single_worker(self):
        tasks = [TaskSpec(task_id=f"t{i}", payload=i, timeout_s=60) for i in range(3)]
        outcomes = _run(tasks, _square, jobs=1)
        assert all(o.status == "ok" for o in outcomes.values())

    def test_duplicate_task_ids_rejected(self):
        tasks = [TaskSpec("dup", 1, 60), TaskSpec("dup", 2, 60)]
        with pytest.raises(ValueError, match="duplicate"):
            list(supervise(tasks, _square, 1))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Supervisor(_square, 0)
        with pytest.raises(ValueError):
            Supervisor(_square, 1, max_attempts=0)
        with pytest.raises(ValueError):
            Supervisor(_square, 1, backoff_base=0)


class TestInBandErrors:
    def test_task_exception_reported_not_retried(self):
        outcomes = _run([TaskSpec("t", "x", 60)], _raise_value_error)
        outcome = outcomes["t"]
        assert outcome.status == "error"
        assert outcome.attempts == 1  # deterministic failures never retry
        assert "bad payload 'x'" in outcome.value

    def test_error_does_not_poison_siblings(self):
        tasks = [TaskSpec("bad", "bad", 60), TaskSpec("good", "good", 60)]
        outcomes = _run(tasks, _fail_only_bad)
        assert outcomes["bad"].status == "error"
        assert outcomes["good"].status == "ok"
        assert outcomes["good"].value == "good"


def _fail_only_bad(payload: object, attempt: int) -> object:
    if payload == "bad":
        raise RuntimeError("boom")
    return payload


class TestWorkerDeath:
    def test_killed_worker_is_detected_and_task_retried(self):
        tasks = [TaskSpec("poison", "poison", 60), TaskSpec("fine", "fine", 60)]
        outcomes = _run(tasks, _die_on_first_attempt, on_event=lambda _: None)
        poison = outcomes["poison"]
        assert poison.status == "ok"
        assert poison.value == ("poison", 1)  # the retry ran attempt 1
        assert poison.attempts == 2
        assert len(poison.failures) == 1
        assert outcomes["fine"].status == "ok"
        assert outcomes["fine"].attempts == 1

    def test_persistent_death_quarantines(self):
        events = []
        outcomes = _run(
            [TaskSpec("t", 1, 60)],
            _always_die,
            jobs=1,
            max_attempts=2,
            on_event=events.append,
        )
        outcome = outcomes["t"]
        assert outcome.status == "quarantined"
        assert outcome.attempts == 2
        assert outcome.value is None
        assert len(outcome.failures) == 2
        assert any("quarantining" in event for event in events)


class TestTimeouts:
    def test_hung_worker_is_reaped_and_task_retried(self):
        tasks = [TaskSpec("slow", "slow", timeout_s=1.5)]
        start = time.monotonic()
        outcomes = _run(tasks, _hang_on_first_attempt, jobs=1, on_event=lambda _: None)
        elapsed = time.monotonic() - start
        outcome = outcomes["slow"]
        assert outcome.status == "ok"
        assert outcome.value == ("slow", 1)
        assert outcome.attempts == 2
        assert "deadline" in outcome.failures[0]
        assert elapsed < 30  # reaped at ~1.5s, not after the 60s sleep


class TestDeterministicBackoff:
    def test_retry_eligibility_counts_events_not_seconds(self):
        supervisor = Supervisor(_square, 1, max_attempts=3, backoff_base=4)
        # No wall-clock sleeps are involved in backoff bookkeeping: the
        # eligibility horizon is derived purely from the event counter.
        from repro.experiments.supervisor import _Pending

        supervisor._events = 10
        assert supervisor._pick_pending(
            [_Pending(TaskSpec("t", 1, 60), 1, eligible_at=11)], True
        ) is None
        assert (
            supervisor._pick_pending(
                [_Pending(TaskSpec("t", 1, 60), 1, eligible_at=10)], True
            )
            == 0
        )
        # Starvation guard: with no busy workers the counter cannot advance,
        # so the leftmost pending task runs regardless of its horizon.
        assert (
            supervisor._pick_pending(
                [_Pending(TaskSpec("t", 1, 60), 1, eligible_at=99)], False
            )
            == 0
        )

    def test_attempt_index_travels_to_worker(self):
        outcomes = _run([TaskSpec("t", "p", 60)], _echo_attempt, jobs=1)
        assert outcomes["t"].value == ("p", 0)


class TestLifecycleHook:
    def test_happy_path_emits_spawn_dispatch_complete(self):
        seen = []
        tasks = [TaskSpec(task_id=f"t{i}", payload=i, timeout_s=60) for i in range(3)]
        outcomes = _run(
            tasks, _square, jobs=2, on_lifecycle=lambda e, f: seen.append((e, f))
        )
        assert all(o.status == "ok" for o in outcomes.values())
        kinds = [event for event, _ in seen]
        assert kinds.count("dispatch") == 3
        assert kinds.count("complete") == 3
        assert "spawn" in kinds
        dispatches = {f["task"] for e, f in seen if e == "dispatch"}
        assert dispatches == {"t0", "t1", "t2"}
        completes = [f for e, f in seen if e == "complete"]
        assert all(f["status"] == "ok" and f["attempts"] == 1 for f in completes)
        spawns = [f for e, f in seen if e == "spawn"]
        assert all(isinstance(f["pid"], int) for f in spawns)

    def test_retry_and_quarantine_are_observed(self):
        seen = []
        outcomes = _run(
            [TaskSpec("t", 1, 60)],
            _always_die,
            jobs=1,
            max_attempts=2,
            on_event=lambda _: None,
            on_lifecycle=lambda e, f: seen.append((e, f)),
        )
        assert outcomes["t"].status == "quarantined"
        retries = [f for e, f in seen if e == "retry"]
        assert len(retries) == 1
        assert retries[0]["task"] == "t"
        assert retries[0]["attempt"] == 1
        quarantines = [f for e, f in seen if e == "quarantine"]
        assert len(quarantines) == 1
        assert quarantines[0]["attempts"] == 2
        assert "died" in quarantines[0]["reason"]

    def test_hook_default_is_silent(self):
        # No hook: nothing to call, nothing recorded — the guard keeps the
        # fast path a single attribute test.
        outcomes = _run([TaskSpec("t", 3, 60)], _square, jobs=1)
        assert outcomes["t"].value == 9


class TestPrepare:
    def test_each_task_is_prepared_once_in_order_before_its_dispatch(self):
        events = []

        def lifecycle(event, fields):
            if event == "dispatch":
                events.append(("dispatch", fields["task"]))

        tasks = [TaskSpec(task_id=f"t{i}", payload=i, timeout_s=60) for i in range(4)]
        supervisor = Supervisor(_square, 2, on_lifecycle=lifecycle)
        outcomes = list(
            supervisor.run(tasks, prepare=lambda spec: events.append(("prepare", spec.task_id)))
        )
        assert [o.status for o in outcomes] == ["ok"] * 4
        assert [t for e, t in events if e == "prepare"] == ["t0", "t1", "t2", "t3"]
        for task in ("t0", "t1", "t2", "t3"):
            assert events.index(("prepare", task)) < events.index(("dispatch", task))
        # Preparation overlaps execution: t0 runs before t3 is prepared.
        assert events.index(("dispatch", "t0")) < events.index(("prepare", "t3"))

    def test_retry_is_not_prepared_again(self):
        prepared = []
        tasks = [TaskSpec("poison", "poison", 60), TaskSpec("fine", "fine", 60)]
        supervisor = Supervisor(_die_on_first_attempt, 1, on_event=lambda _: None)
        outcomes = {
            o.task_id: o
            for o in supervisor.run(tasks, prepare=lambda spec: prepared.append(spec.task_id))
        }
        assert outcomes["poison"].status == "ok" and outcomes["poison"].attempts == 2
        assert outcomes["fine"].status == "ok"
        assert prepared == ["poison", "fine"]

    def test_completion_is_yielded_between_slow_prepares(self):
        events = []

        def slow_prepare(spec):
            events.append(("prepare", spec.task_id))
            if spec.task_id != "t0":
                time.sleep(0.5)

        tasks = [TaskSpec(task_id=f"t{i}", payload=i, timeout_s=60) for i in range(4)]
        for outcome in Supervisor(_square, 2).run(tasks, prepare=slow_prepare):
            events.append(("done", outcome.task_id))
        # t0 finishes during t1's prepare and is handed out before t2's.
        assert events.index(("done", "t0")) < events.index(("prepare", "t2"))

    def test_hung_task_is_reaped_between_slow_prepares(self):
        events = []

        def slow_prepare(spec):
            events.append(("prepare", spec.task_id))
            if spec.task_id != "t0":
                time.sleep(0.5)

        tasks = [TaskSpec("t0", 0, 0.2)] + [TaskSpec(f"t{i}", i, 60) for i in (1, 2, 3)]
        supervisor = Supervisor(
            _hang_on_zero, 1, max_attempts=1, on_event=lambda _: None
        )
        outcomes = {}
        for outcome in supervisor.run(tasks, prepare=slow_prepare):
            events.append(("done", outcome.task_id))
            outcomes[outcome.task_id] = outcome
        assert outcomes["t0"].status == "quarantined"
        assert all(outcomes[f"t{i}"].status == "ok" for i in (1, 2, 3))
        # t0's deadline passes during t1's prepare; t0 is reaped (and t1
        # dispatched to a fresh worker) before t2's prepare starts.
        assert events.index(("done", "t0")) < events.index(("prepare", "t2"))


class TestShutdown:
    def test_shutdown_is_idempotent_and_kills_workers(self):
        supervisor = Supervisor(_square, 2)
        outcomes = list(supervisor.run([TaskSpec("t", 2, 60)]))
        assert outcomes[0].value == 4
        supervisor.shutdown()  # run() already shut down; must be a no-op
        assert supervisor._slots == []
