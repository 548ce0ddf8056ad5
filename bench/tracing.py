"""Spans around the reproduction's public entry points, recorded in memory.

The benchmark never edits the program to trace it: :func:`install_pass_a`
and :func:`install_pass_b` replace a few public functions and methods with
wrappers that open a span, call the original and close the span.

* Pass A records coarse spans, a few per sweep point: experiment, point,
  trace fetch, trace generation, simulation, result and trace stores, shared
  memory publishing, journal appends, and the supervisor start.
* Pass B adds spans on every protocol engine's ``resolve_slow`` and
  ``resolve_slow_batch``.  They are outermost-only: MEUSI and RMO call
  ``MesiProtocol.resolve_slow`` from their own ``resolve_slow``, and that
  nested call is part of the outer span, not a second one.  There are
  hundreds of thousands of them per run, so they are folded into a count
  and a total per parent span instead of being kept one by one.

Spans are only recorded in the process that installed them; campaign
workers forked from it call straight through (their point times come from
the runner's per-point records instead).
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

#: Obs registry counters folded into per-layer metrics (sum of the names).
REGISTRY_COUNTERS: Dict[str, Tuple[str, ...]] = {
    "sim.kernel.hits_batched": ("kernel.hits_batched",),
    "sim.kernel.slow_events": ("kernel.slow_events",),
    "sim.kernel.stint_bails": ("kernel.stint.bail",),
    "sim.scalar_stints": ("sim.stint.scalar",),
    "sim.kernel.merge_accepts": ("kernel.merge.accept.productive", "kernel.merge.accept.unproductive"),
    "sim.kernel.merge_declines": (
        "kernel.merge.decline.cooldown",
        "kernel.merge.decline.few_parked",
        "kernel.merge.decline.gate_conflict",
        "kernel.merge.decline.merge_empty",
    ),
    "sim.kernel.merge_retired": ("kernel.merge.retired",),
    "supervisor.retries": ("supervisor.retry",),
    "supervisor.quarantined": ("supervisor.quarantine",),
}


class Span:
    """One recorded interval; ``info`` holds numbers noted from the result."""

    __slots__ = ("name", "start", "end", "parent", "key", "group", "info", "folded")

    def __init__(self, name: str, start: float, parent: Optional[int], key: Optional[str], group: str) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.key = key
        self.group = group
        self.info: Dict[str, float] = {}
        #: Outermost-only child spans folded into ``name -> [count, total_s]``.
        self.folded: Dict[str, List[float]] = {}

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "key": self.key,
            "group": self.group,
            "info": self.info,
            "folded": self.folded,
        }


class SpanRecorder:
    """In-memory span store for one benchmark child process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.group = "setup"
        self._stack: List[int] = []
        self._pid = os.getpid()
        self._undo: List[Tuple[Any, str, Any]] = []
        self._in_core = False

    def open(self, name: str, key: Optional[str] = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if key is None and parent is not None:
            key = self.spans[parent].key
        self.spans.append(Span(name, time.perf_counter(), parent, key, self.group))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        key: Optional[Callable[..., Optional[str]]] = None,
        info: Optional[Callable[[Any], Mapping[str, float]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a function that records a span per call."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        recorder = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != recorder._pid:
                return original(*args, **kwargs)
            index = recorder.open(name, key(*args) if key is not None else None)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(index)
            if info is not None:
                recorder.spans[index].info.update(info(result))
            return result

        self._replace(owner, attr, original, traced)

    def wrap_folded(self, owner: type, attr: str, name: str) -> None:
        """Replace a per-event method with an outermost-only folded span."""
        original = owner.__dict__[attr]
        recorder = self
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            if recorder._in_core:
                return original(*args, **kwargs)
            recorder._in_core = True
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                recorder._in_core = False
                stack = recorder._stack
                if stack:
                    entry = recorder.spans[stack[-1]].folded.setdefault(name, [0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed

        self._replace(owner, attr, original, traced)

    def _replace(self, owner: Any, attr: str, original: Any, traced: Callable[..., Any]) -> None:
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def to_jsonable(self) -> List[Dict[str, Any]]:
        return [record.to_jsonable() for record in self.spans]


@contextlib.contextmanager
def span(recorder: Optional[SpanRecorder], name: str) -> Iterator[None]:
    """A span around a block of the benchmark's own code (no-op untraced)."""
    if recorder is None:
        yield
        return
    index = recorder.open(name)
    try:
        yield
    finally:
        recorder.close(index)


def result_counts(results: List[Any]) -> Dict[str, float]:
    """The deterministic simulated-machine counters of a set of results."""
    counts = {
        "sim.accesses": 0,
        "sim.simulated_cycles": 0.0,
        "core.invalidations": 0,
        "core.downgrades": 0,
        "core.reductions": 0,
        "core.partial_reductions": 0,
        "interconnect.offchip_bytes": 0,
        "interconnect.onchip_bytes": 0,
        "interconnect.surcharge_cycles": 0.0,
    }
    for result in results:
        counts["sim.accesses"] += result.total_accesses
        counts["sim.simulated_cycles"] += result.run_cycles
        counts["core.invalidations"] += result.invalidations
        counts["core.downgrades"] += result.downgrades
        counts["core.reductions"] += result.reductions
        counts["core.partial_reductions"] += result.partial_reductions
        counts["interconnect.offchip_bytes"] += result.offchip_bytes
        counts["interconnect.onchip_bytes"] += result.onchip_bytes
        if result.link_stats is not None:
            counts["interconnect.surcharge_cycles"] += result.link_stats.surcharge_cycles
    return counts


def install_pass_a(recorder: SpanRecorder) -> None:
    """Coarse spans at each layer boundary of the campaign and the simulator."""
    from repro.experiments import journal, runner, supervisor, sweep
    from repro.sim.columnar import ColumnarTrace
    from repro.sim.simulator import MulticoreSimulator

    def accesses(trace: Any) -> Mapping[str, float]:
        return {"accesses": trace.total_accesses}

    recorder.wrap(runner, "run_experiment", "runner.experiment", key=lambda experiment_id, *_: experiment_id)
    recorder.wrap(runner, "run_parallel", "runner.run_parallel")
    recorder.wrap(supervisor.Supervisor, "run", "supervisor.start")
    recorder.wrap(sweep, "run_point", "sweep.point", key=lambda point, *_: point.key)
    recorder.wrap(sweep.TraceCache, "get", "sweep.trace_get")
    recorder.wrap(sweep.WorkloadSpec, "materialize_columnar", "workloads.generate", info=accesses)
    recorder.wrap(sweep.WorkloadSpec, "materialize", "workloads.generate", info=accesses)
    recorder.wrap(sweep, "publish_trace_shm", "sweep.shm_publish", info=lambda out: {"bytes": out[1].size})
    recorder.wrap(ColumnarTrace, "save_npz", "sweep.npz_store")
    recorder.wrap(sweep.ResultCache, "store", "sweep.result_store")
    recorder.wrap(sweep.FuncPoint, "execute", "sweep.funcpoint")
    recorder.wrap(journal.JournalWriter, "append", "journal.append")
    recorder.wrap(MulticoreSimulator, "run", "sim.run", info=lambda result: result_counts([result]))


def install_pass_b(recorder: SpanRecorder) -> None:
    """Outermost-only spans on every engine's slow-path entry points."""
    from repro.core.mesi import MesiProtocol
    from repro.core.meusi import MeusiProtocol
    from repro.core.rmo import RmoProtocol

    for engine in (MesiProtocol, MeusiProtocol, RmoProtocol):
        if "resolve_slow" in engine.__dict__:
            recorder.wrap_folded(engine, "resolve_slow", "core.resolve_slow")
        if "resolve_slow_batch" in engine.__dict__:
            recorder.wrap_folded(engine, "resolve_slow_batch", "core.resolve_slow_batch")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [record.end - record.start for record in spans]
    for index, record in enumerate(spans):
        for _count, seconds in record.folded.values():
            own[index] -= seconds
        if record.parent is not None:
            own[record.parent] -= record.end - record.start
    return own


def group_metrics(
    spans: List[Span],
    own: List[float],
    group: str,
    counts: Mapping[str, Any],
    registry_delta: Mapping[str, int],
    wall_s: float,
    workers: int,
) -> Dict[str, float]:
    """Per-layer metrics of one unit (or of set-up) from its spans and counters."""
    total: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    own_total: Dict[str, float] = {}
    info: Dict[str, Dict[str, float]] = {}
    folded: Dict[str, List[float]] = {}
    starts: Dict[str, float] = {}
    point_times: List[float] = []
    for record, own_s in zip(spans, own):
        if record.group != group:
            continue
        duration = record.end - record.start
        total[record.name] = total.get(record.name, 0.0) + duration
        calls[record.name] = calls.get(record.name, 0) + 1
        own_total[record.name] = own_total.get(record.name, 0.0) + own_s
        starts.setdefault(record.name, record.start)
        for field, value in record.info.items():
            bucket = info.setdefault(record.name, {})
            bucket[field] = bucket.get(field, 0) + value
        for name, (count, seconds) in record.folded.items():
            entry = folded.setdefault(name, [0, 0.0])
            entry[0] += count
            entry[1] += seconds
        if record.name == "sweep.point":
            point_times.append(duration)

    def counter(metric: str) -> int:
        return sum(registry_delta.get(name, 0) for name in REGISTRY_COUNTERS[metric])

    sim_info = info.get("sim.run", {})
    metrics: Dict[str, float] = {
        "workloads.generate_s": total.get("workloads.generate", 0.0),
        "workloads.generate_calls": calls.get("workloads.generate", 0),
        "workloads.accesses_generated": info.get("workloads.generate", {}).get("accesses", 0),
        "sweep.trace_get_s": total.get("sweep.trace_get", 0.0),
        "sweep.shm_publish_s": total.get("sweep.shm_publish", 0.0),
        "sweep.shm_publish_calls": calls.get("sweep.shm_publish", 0),
        "sweep.shm_bytes": info.get("sweep.shm_publish", {}).get("bytes", 0),
        "sweep.npz_store_s": total.get("sweep.npz_store", 0.0),
        "sweep.result_store_s": total.get("sweep.result_store", 0.0),
        "sweep.funcpoint_s": total.get("sweep.funcpoint", 0.0),
        "runner.prepare_s": (
            starts["supervisor.start"] - starts["runner.run_parallel"]
            if "supervisor.start" in starts and "runner.run_parallel" in starts
            else 0.0
        ),
        "journal.append_s": total.get("journal.append", 0.0),
        "journal.appends": calls.get("journal.append", 0),
        "collect.fold_s": total.get("collect.fold", 0.0),
        "sim.run_s": total.get("sim.run", 0.0),
        "sim.run_calls": calls.get("sim.run", 0),
        "sim.self_s": own_total.get("sim.run", 0.0),
        "core.resolve_slow_calls": folded.get("core.resolve_slow", [0, 0.0])[0],
        "core.resolve_slow_s": folded.get("core.resolve_slow", [0, 0.0])[1],
        "core.resolve_slow_batch_calls": folded.get("core.resolve_slow_batch", [0, 0.0])[0],
        "core.resolve_slow_batch_s": folded.get("core.resolve_slow_batch", [0, 0.0])[1],
    }
    for metric in REGISTRY_COUNTERS:
        metrics[metric] = counter(metric)
    metrics["sweep.trace_hits"] = counts.get("sweep.trace_hits", 0)
    metrics["sweep.trace_misses"] = counts.get("sweep.trace_misses", 0)
    # Result counters and point times measured outside the spans win: a
    # --jobs campaign's simulations run in workers, so they come from the
    # run's own records instead (see bench.workloads).
    for field, zero in result_counts([]).items():
        metrics[field] = counts.get(field, sim_info.get(field, zero))
    point_times = list(counts.get("runner.point_elapsed", point_times))
    busy = wall_s - metrics["runner.prepare_s"]
    metrics.update(
        {
            "runner.points": len(point_times),
            "runner.point_p50_s": statistics.median(point_times) if point_times else 0.0,
            "runner.point_p90_s": statistics.quantiles(point_times, n=10)[8] if len(point_times) > 1 else 0.0,
            "runner.worker_busy_frac": sum(point_times) / (workers * busy) if point_times and busy > 0 else 0.0,
        }
    )
    lookups = metrics["sweep.trace_hits"] + metrics["sweep.trace_misses"]
    merges = metrics["sim.kernel.merge_accepts"] + metrics["sim.kernel.merge_declines"]
    metrics["sweep.trace_hit_ratio"] = metrics["sweep.trace_hits"] / lookups if lookups else 0.0
    metrics["sim.kernel.merge_accept_ratio"] = metrics["sim.kernel.merge_accepts"] / merges if merges else 0.0
    metrics["sim.kernel.hit_share"] = (
        metrics["sim.kernel.hits_batched"] / metrics["sim.accesses"] if metrics["sim.accesses"] else 0.0
    )
    metrics["sim.ns_per_access"] = (
        metrics["sim.run_s"] * 1e9 / metrics["sim.accesses"] if metrics["sim.accesses"] and metrics["sim.run_s"] else 0.0
    )
    slow_calls = metrics["core.resolve_slow_calls"]
    metrics["core.us_per_slow_event"] = metrics["core.resolve_slow_s"] * 1e6 / slow_calls if slow_calls else 0.0
    return metrics
