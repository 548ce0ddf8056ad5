"""Declarative sweep engine for the experiment layer.

Every figure and table in the paper is a sweep over the same grid —
benchmark x update style x protocol x core count — and before this module
each experiment hand-rolled its own nested loops.  The engine factors that
structure out:

* A :class:`SweepSpec` names an experiment's grid as an ordered list of
  *sweep points* plus a ``build`` function that folds the per-point results
  back into the experiment's row dictionaries.  Experiment modules expose
  ``sweep_spec()`` so the runner can schedule individual points.
* A :class:`SimPoint` is one simulation (workload spec x protocol x core
  count x machine config).  A :class:`FuncPoint` wraps anything else (the
  verification sweep, configuration tables) behind the same interface.
* Workload traces are materialized once per (workload parameters, update
  style, generation variant, core count, seed) and shared across every
  point that needs them — most importantly across protocols and across the
  fast/slow machine configurations of the sensitivity study — through a
  bounded per-process :class:`TraceCache`.  Sharing is safe because trace
  generation is deterministic and the simulator never mutates a trace; the
  equivalence suite pins that results are bit-identical to per-protocol
  regeneration.
* Traces are held in the packed columnar form
  (:class:`~repro.sim.columnar.ColumnarTrace`): ~29 bytes per access, which
  lets the cache hold 4x more traces, and persists each trace as a verified
  ``.npz`` file when a cache directory is configured, which is how the
  parallel runner hands the traces its parent generates to its workers.
* Completed points can be persisted in a :class:`ResultCache` keyed by a
  content hash of (machine config, workload parameters, protocol, seed,
  scale), which is what ``runner --resume`` uses to skip finished work.

The engine never changes *what* is simulated, only how the simulations are
named, scheduled, shared, and cached.
"""

from __future__ import annotations

import atexit
import contextlib
import dataclasses
import enum
import hashlib
import json
import os
import tempfile
import zipfile
from collections import OrderedDict

import numpy as np
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:
    from multiprocessing import shared_memory

from repro import obs as _obs
from repro.experiments import settings
from repro.sim.access import WorkloadTrace
from repro.sim.columnar import ACCESS_DTYPE, ColumnarTrace
from repro.sim.config import SystemConfig
from repro.sim.simulator import MulticoreSimulator, make_protocol
from repro.sim.stats import SimulationResult
from repro.software.privatization import PrivatizationLevel
from repro.workloads.base import Workload

#: Bumped whenever a change invalidates previously cached point results.
#: (2: SystemConfig fingerprints gained the network topology subsystem.
#:  3: SimulationResult.to_jsonable emits final_values in canonical sorted
#:     order — required for batched-kernel/scalar cache-record equality.)
ENGINE_VERSION = 3

#: Default location of the persistent point cache, relative to the cwd (the
#: same convention the runner uses for ``results/experiments``).
DEFAULT_CACHE_DIR = os.path.join("results", "sweep-cache")


# ---------------------------------------------------------------------------
# Workload specs and the shared trace cache
# ---------------------------------------------------------------------------


class WorkloadSpec:
    """A workload factory plus the generation variant to materialize.

    ``build`` returns a *fresh* :class:`Workload` instance; the spec derives
    a stable trace key from that instance's parameters (see
    :meth:`Workload.trace_key`) so identical traces are generated only once
    per process and shared across protocols and machine configurations.
    Every variant builds a :class:`ColumnarTrace`; :meth:`materialize`
    unpacks it for callers that want the object form.
    """

    __slots__ = ("build", "variant", "_materialize")

    def __init__(
        self,
        build: Callable[[], Workload],
        *,
        variant: Tuple = ("plain",),
        materialize: Optional[Callable[[Workload, int], ColumnarTrace]] = None,
    ) -> None:
        self.build = build
        self.variant = tuple(variant)
        self._materialize = materialize

    @classmethod
    def plain(cls, build: Callable[[], Workload]) -> "WorkloadSpec":
        """The ordinary ``workload.generate_columnar(n_cores)`` trace."""
        return cls(build)

    @classmethod
    def privatized(
        cls,
        build: Callable[[], Workload],
        level: PrivatizationLevel,
        cores_per_socket: int = 16,
    ) -> "WorkloadSpec":
        """A software-privatized variant (``generate_privatized``)."""
        return cls(
            build,
            variant=("privatized", level.value, cores_per_socket),
            materialize=partial(
                _materialize_privatized, level=level, cores_per_socket=cores_per_socket
            ),
        )

    def key(self, n_cores: int) -> Tuple:
        """Hashable identity of the trace :meth:`materialize` would produce."""
        return (self.build().trace_key(), self.variant, n_cores)

    def materialize(self, n_cores: int) -> WorkloadTrace:
        """The object-form view of the trace :meth:`materialize_columnar` builds."""
        workload = self.build()
        if self._materialize is None:
            return workload.generate(n_cores)
        return self._materialize(workload, n_cores).to_workload()

    def materialize_columnar(self, n_cores: int) -> ColumnarTrace:
        """Generate the packed columnar trace from a fresh workload instance.

        Plain variants use the workload's builder and variant materializers
        (privatization) their own.
        """
        workload = self.build()
        if self._materialize is None:
            return workload.generate_columnar(n_cores)
        return self._materialize(workload, n_cores)


def _materialize_privatized(
    workload: Workload, n_cores: int, *, level: PrivatizationLevel, cores_per_socket: int
) -> ColumnarTrace:
    return workload.generate_privatized(
        n_cores, level=level, cores_per_socket=cores_per_socket
    )


#: Bumped whenever the packed trace format changes (invalidates .npz files).
TRACE_FORMAT_VERSION = 1


def trace_key_digest(key: Tuple) -> str:
    """Stable content digest of a workload trace key (npz/shm addressing)."""
    payload = {
        "format": TRACE_FORMAT_VERSION,
        "dtype": str(ACCESS_DTYPE),
        "key": _jsonable(key),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class TraceCache:
    """Bounded LRU cache of materialized workload traces, in columnar form.

    One trace can serve many sweep points (the MESI and COUP runs of a
    ``compare_protocols``-style sweep, the fast- and slow-ALU runs of the
    sensitivity study, a 1-core baseline shared between experiments), so the
    cache is keyed by the full workload identity and bounded by trace count —
    traces are the memory hog, not the results.  Traces are held packed
    (:class:`ColumnarTrace`, ~29 bytes per access vs ~100+ for objects, see
    :attr:`total_bytes`), which is why the default capacity is four times the
    old object-form bound.  A workload whose trace cannot be packed (exotic
    operand values) raises :class:`~repro.sim.columnar.TraceCodecError`.

    With ``store_dir`` set, materialized traces are additionally persisted
    as ``<digest>.npz`` files and reloaded on a cold miss, so repeated or
    resumed sweeps skip regeneration entirely; every file embeds its full
    key fingerprint, which is verified on load before the trace is trusted.
    """

    def __init__(self, max_traces: int = 32, store_dir: Optional[str] = None) -> None:
        if max_traces <= 0:
            raise ValueError("max_traces must be positive")
        self.max_traces = max_traces
        self.store_dir = store_dir
        self._traces: "OrderedDict[Tuple, ColumnarTrace]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_loads = 0
        self.disk_stores = 0

    def get(self, spec: WorkloadSpec, n_cores: int) -> ColumnarTrace:
        key = spec.key(n_cores)
        trace = self._traces.get(key)
        if trace is not None:
            self._traces.move_to_end(key)
            self.hits += 1
        else:
            self.misses += 1
            trace = self._traces[key] = self._load_or_materialize(spec, n_cores, key)
        # Trims on hits too, so a lowered ``max_traces`` holds from the next get.
        while len(self._traces) > self.max_traces:
            self._traces.popitem(last=False)
        return trace

    def _load_or_materialize(
        self, spec: WorkloadSpec, n_cores: int, key: Tuple
    ) -> ColumnarTrace:
        fingerprint = None
        path = None
        if self.store_dir:
            try:
                fingerprint = _jsonable(key)
                path = os.path.join(self.store_dir, f"{trace_key_digest(key)}.npz")
                trace, extra = ColumnarTrace.load_npz_with_meta(path)
                if extra is not None and extra.get("trace_key") == fingerprint:
                    self.disk_loads += 1
                    return trace
            except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
                pass  # missing, corrupt, or stale file: regenerate
        trace = spec.materialize_columnar(n_cores)
        if path is not None:
            # Persistence is an optimization; a read-only or full disk must
            # not fail a sweep whose trace already materialized.
            try:
                trace.save_npz(path, extra_meta={"trace_key": fingerprint})
                self.disk_stores += 1
            except (OSError, TypeError, ValueError):
                pass
        return trace

    @property
    def total_bytes(self) -> int:
        """Packed bytes held across all cached columnar traces."""
        return sum(trace.nbytes for trace in self._traces.values())

    def stats(self) -> Dict[str, int]:
        """Occupancy and traffic counters (benchmark/CI reporting)."""
        return {
            "traces": len(self._traces),
            "bytes": self.total_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "disk_loads": self.disk_loads,
            "disk_stores": self.disk_stores,
        }

    def clear(self) -> None:
        self._traces.clear()
        self.hits = 0
        self.misses = 0
        self.disk_loads = 0
        self.disk_stores = 0

    def __len__(self) -> int:
        return len(self._traces)


#: Process-wide trace cache: shares traces across experiments in a serial
#: sweep and across the points a parallel worker happens to execute.
_shared_trace_cache = TraceCache()


# ---------------------------------------------------------------------------
# Zero-copy trace transport through shared memory
# ---------------------------------------------------------------------------
# The runner no longer uses these (it hands traces over through the .npz store);
# they stay only because the benchmark imports and wraps them.


@dataclasses.dataclass(frozen=True)
class ShmTraceHandle:
    """Picklable descriptor of a columnar trace published in shared memory.

    The parent concatenates every core's packed column into one
    ``multiprocessing.shared_memory`` segment; workers rebuild zero-copy
    read-only array views from ``(segment name, per-core lengths)``.  Only
    the small metadata (name, params, phase boundaries) travels through the
    task pickle; the columns never do.
    """

    shm_name: str
    lengths: Tuple[int, ...]
    trace_name: str
    params: Tuple[Tuple[str, Any], ...]
    phase_boundaries: Optional[Tuple[Tuple[int, ...], ...]]
    key_digest: str


#: Name prefix of every shared-memory segment :func:`publish_trace_shm` makes.  The
#: owning pid is embedded right after it (``repro_shm_<pid>_<digest>``) so
#: :func:`reclaim_stale_segments` can tell a live campaign's segments from
#: those leaked by a crashed one.
SHM_NAME_PREFIX = "repro_shm_"

#: Every segment this process has published and not yet released, by name.
#: An atexit hook drains it so segments cannot outlive a normal exit even
#: when the publisher's ``finally`` never runs.
_published_segments: Dict[str, "shared_memory.SharedMemory"] = {}
_shm_cleanup_registered = False


def _register_published_segment(segment: "shared_memory.SharedMemory") -> None:
    global _shm_cleanup_registered
    if not _shm_cleanup_registered:
        atexit.register(_cleanup_published_segments)
        _shm_cleanup_registered = True
    _published_segments[segment.name] = segment


def _cleanup_published_segments() -> None:
    """atexit hook: unlink every still-published segment."""
    for segment in list(_published_segments.values()):
        with contextlib.suppress(OSError):
            segment.close()
        with contextlib.suppress(OSError):
            segment.unlink()
    _published_segments.clear()


def release_trace_shm(segment: "shared_memory.SharedMemory") -> None:
    """Close and unlink a published segment and drop it from the registry."""
    _published_segments.pop(segment.name, None)
    with contextlib.suppress(OSError):
        segment.close()
    with contextlib.suppress(OSError):
        segment.unlink()


def reclaim_stale_segments(shm_dir: str = "/dev/shm") -> List[str]:
    """Unlink ``repro_shm_*`` segments whose owning process is dead.

    A campaign killed with SIGKILL never runs its cleanup, leaving its
    published trace segments pinned in ``/dev/shm`` until reboot.  Call this
    at startup: any segment whose name carries a pid that no longer exists
    is leaked and reclaimed.  Segments owned by live pids
    (or pids this user cannot signal) are left alone.  Returns the names
    reclaimed; on platforms without a POSIX shm filesystem this is a no-op.
    """
    reclaimed: List[str] = []
    if not os.path.isdir(shm_dir):
        return reclaimed
    for name in sorted(os.listdir(shm_dir)):
        if not name.startswith(SHM_NAME_PREFIX):
            continue
        owner = name[len(SHM_NAME_PREFIX) :].partition("_")[0]
        if not owner.isdigit():
            continue
        if int(owner) == os.getpid():
            continue  # this process's own live segments
        try:
            os.kill(int(owner), 0)
        except ProcessLookupError:
            pass  # owner is gone: the segment is leaked
        except PermissionError:
            continue  # owner exists under another user
        else:
            continue  # owner still alive
        with contextlib.suppress(OSError):
            os.unlink(os.path.join(shm_dir, name))
            reclaimed.append(name)
    return reclaimed


def publish_trace_shm(
    trace: ColumnarTrace, key: Tuple
) -> Tuple[ShmTraceHandle, "shared_memory.SharedMemory"]:
    """Copy a columnar trace into a named shared-memory segment.

    Returns ``(handle, segment)``; the caller owns the segment and must
    release it (:func:`release_trace_shm`) once every consumer is done.
    Until then the segment is tracked in the published registry, whose
    atexit hook unlinks anything still live at interpreter exit.
    """
    from multiprocessing import shared_memory

    total = sum(column.nbytes for column in trace.columns)
    name = f"{SHM_NAME_PREFIX}{os.getpid()}_{trace_key_digest(key)[:10]}"
    try:
        segment = shared_memory.SharedMemory(create=True, size=max(1, total), name=name)
    except FileExistsError:
        # A same-name leftover means an earlier campaign in this process (or
        # a recycled pid) leaked it; it is unreachable now, so reclaim it.
        with contextlib.suppress(OSError):
            stale = shared_memory.SharedMemory(name=name)
            stale.close()
            stale.unlink()
        segment = shared_memory.SharedMemory(create=True, size=max(1, total), name=name)
    _register_published_segment(segment)
    obs_reg = _obs.get_registry()
    if obs_reg is not None:
        obs_reg.inc("sweep.shm_publish")
    offset = 0
    for column in trace.columns:
        view = np.ndarray(len(column), dtype=ACCESS_DTYPE, buffer=segment.buf, offset=offset)
        view[:] = column
        offset += column.nbytes
    handle = ShmTraceHandle(
        shm_name=segment.name,
        lengths=tuple(len(column) for column in trace.columns),
        trace_name=trace.name,
        params=tuple(trace.params.items()),
        phase_boundaries=(
            tuple(tuple(bounds) for bounds in trace.phase_boundaries)
            if trace.phase_boundaries is not None
            else None
        ),
        key_digest=trace_key_digest(key),
    )
    return handle, segment


def attach_trace_shm(handle: ShmTraceHandle, *, in_worker: bool = False) -> ColumnarTrace:
    """Rebuild a zero-copy read-only :class:`ColumnarTrace` from a handle.

    ``in_worker`` must be True when attaching from a worker process that
    does *not* own the segment.  Under the spawn start method each worker
    runs its own resource tracker, and Python < 3.13 registers attached
    segments with it — the first worker to exit would unlink the segment
    out from under its siblings, so ownership is handed back by
    unregistering.  Forked workers share the publishing parent's tracker
    (registration is set-idempotent and the parent unlinks at the end), and
    a same-process attach shares the owner's registration outright — in
    both cases unregistering would erase the owner's claim, so it is
    skipped.
    """
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=handle.shm_name)
    try:
        import multiprocessing

        if in_worker and multiprocessing.get_start_method(allow_none=True) != "fork":
            from multiprocessing import resource_tracker

            resource_tracker.unregister(segment._name, "shared_memory")
    except (ImportError, AttributeError, KeyError, ValueError):  # pragma: no cover
        pass  # tracker layout differs by version; ownership fix is best-effort
    obs_reg = _obs.get_registry()
    if obs_reg is not None:
        obs_reg.inc("sweep.shm_attach")
    columns = []
    offset = 0
    for length in handle.lengths:
        view = np.ndarray(length, dtype=ACCESS_DTYPE, buffer=segment.buf, offset=offset)
        view.flags.writeable = False
        columns.append(view)
        offset += view.nbytes
    trace = ColumnarTrace(
        name=handle.trace_name,
        columns=columns,
        params=dict(handle.params),
        phase_boundaries=(
            [list(bounds) for bounds in handle.phase_boundaries]
            if handle.phase_boundaries is not None
            else None
        ),
    )
    trace._shm = segment  # keep the mapping alive as long as the views
    return trace


def shared_trace_cache() -> TraceCache:
    """The process-wide trace cache used when no explicit cache is passed."""
    return _shared_trace_cache


class ExecutionContext:
    """What a sweep point may use while executing: the shared trace cache."""

    __slots__ = ("traces",)

    def __init__(self, traces: Optional[TraceCache] = None) -> None:
        self.traces = traces if traces is not None else _shared_trace_cache

    def trace(self, spec: WorkloadSpec, n_cores: int) -> ColumnarTrace:
        return self.traces.get(spec, n_cores)


# ---------------------------------------------------------------------------
# Sweep points
# ---------------------------------------------------------------------------


def _jsonable(value: Any) -> Any:
    """Recursively convert a fingerprint component to JSON-native types."""
    if isinstance(value, enum.Enum):
        return [type(value).__name__, value.value]
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return value


@dataclasses.dataclass(frozen=True)
class SimPoint:
    """One simulation: workload trace x protocol x core count x machine."""

    key: str
    workload: WorkloadSpec
    protocol: str
    n_cores: int
    config: SystemConfig
    track_values: bool = False

    def fingerprint(self) -> Optional[dict]:
        """Content identity of this point for the persistent result cache."""
        return {
            "kind": "sim",
            "engine": ENGINE_VERSION,
            "workload": _jsonable(self.workload.key(self.n_cores)),
            "protocol": self.protocol,
            "n_cores": self.n_cores,
            "config": _jsonable(dataclasses.asdict(self.config)),
            "track_values": self.track_values,
            "scale": settings.scale(),
        }

    def execute(self, ctx: ExecutionContext) -> SimulationResult:
        trace = ctx.trace(self.workload, self.n_cores)
        engine = make_protocol(self.protocol, self.config, track_values=self.track_values)
        simulator = MulticoreSimulator(self.config, engine, track_values=self.track_values)
        return simulator.run(trace)


@dataclasses.dataclass(frozen=True)
class FuncPoint:
    """A non-simulation sweep point (verification runs, config tables).

    ``fn`` receives the :class:`ExecutionContext` so it can share cached
    traces, and must return JSON-serializable data (row dictionaries) for
    the point to be cacheable.  ``fingerprint_data`` identifies the point's
    inputs; ``None`` marks the point as never cached.
    """

    key: str
    fn: Callable[[ExecutionContext], Any]
    fingerprint_data: Optional[Mapping[str, Any]] = None

    def fingerprint(self) -> Optional[dict]:
        if self.fingerprint_data is None:
            return None
        return {
            "kind": "func",
            "engine": ENGINE_VERSION,
            "key": self.key,
            "data": _jsonable(dict(self.fingerprint_data)),
            "scale": settings.scale(),
        }

    def execute(self, ctx: ExecutionContext) -> Any:
        return self.fn(ctx)


SweepPoint = Union[SimPoint, FuncPoint]


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------


class SweepSpec:
    """An experiment as an ordered grid of sweep points plus a row builder.

    ``build`` maps ``{point key: point result}`` to whatever the experiment's
    public ``run(...)`` returns; it must not simulate anything itself, so the
    runner can execute points anywhere (other processes, the cache) and still
    reproduce the experiment's rows and printed tables exactly.
    """

    def __init__(
        self,
        experiment_id: str,
        points: Sequence[SweepPoint],
        build: Callable[[Mapping[str, Any]], Any],
    ) -> None:
        self.experiment_id = experiment_id
        self.points: List[SweepPoint] = list(points)
        self._by_key: Dict[str, SweepPoint] = {}
        for point in self.points:
            if point.key in self._by_key:
                raise ValueError(
                    f"duplicate sweep point key {point.key!r} in {experiment_id}"
                )
            self._by_key[point.key] = point
        self.build = build

    @property
    def point_keys(self) -> List[str]:
        return [point.key for point in self.points]

    def point(self, key: str) -> SweepPoint:
        return self._by_key[key]

    def rows(self, results: Mapping[str, Any]) -> Any:
        """Fold per-point results into the experiment's ``run()`` value."""
        return self.build(results)


# ---------------------------------------------------------------------------
# Persistent result cache (--resume)
# ---------------------------------------------------------------------------


class ResultCache:
    """Content-addressed store of completed sweep-point results.

    Each completed point is written to ``<root>/<hash>.json`` where the hash
    covers the point's full fingerprint — machine config, workload
    parameters (including the workload seed), protocol, core count, and the
    harness scale — so a cache entry can never be replayed against a
    different sweep.  Loads verify the stored fingerprint before trusting a
    file.  Results round-trip bit-identically (JSON preserves ints exactly
    and floats via shortest-repr).
    """

    def __init__(self, root: str = DEFAULT_CACHE_DIR, *, read: bool = True) -> None:
        self.root = root
        #: When False the cache is write-only: completed points are persisted
        #: for a later ``--resume`` sweep, but nothing is replayed.
        self.read = read
        self.stores = 0
        self.loads = 0

    @staticmethod
    def digest(fingerprint: Mapping[str, Any]) -> str:
        canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def _path(self, fingerprint: Mapping[str, Any]) -> str:
        return os.path.join(self.root, f"{self.digest(fingerprint)}.json")

    def contains(self, point: SweepPoint) -> bool:
        """Cheap existence probe (no load or verification).

        Used for scheduling decisions: the parallel runner skips
        prefetching a trace for a point whose result will replay from this
        cache.  A stale or corrupt file can return a false positive; the
        worker's :meth:`load` still verifies before trusting it, and falls
        back to simulating (generating its trace locally).
        """
        if not self.read:
            return False
        fingerprint = point.fingerprint()
        return fingerprint is not None and os.path.exists(self._path(fingerprint))

    def load(self, point: SweepPoint) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; a miss is ``(False, None)``."""
        if not self.read:
            return False, None
        fingerprint = point.fingerprint()
        if fingerprint is None:
            return False, None
        path = self._path(fingerprint)
        obs_reg = _obs.get_registry()
        try:
            with open(path) as handle:
                record = json.load(handle)
        except (OSError, json.JSONDecodeError):
            if obs_reg is not None:
                obs_reg.inc("sweep.cache_miss")
            return False, None
        if record.get("fingerprint") != fingerprint:
            if obs_reg is not None:
                obs_reg.inc("sweep.cache_miss")
            return False, None  # hash collision or stale format: recompute
        value = record.get("value")
        if record.get("kind") == "sim":
            try:
                value = SimulationResult.from_jsonable(value)
            except (KeyError, TypeError):
                if obs_reg is not None:
                    obs_reg.inc("sweep.cache_miss")
                return False, None
        self.loads += 1
        if obs_reg is not None:
            obs_reg.inc("sweep.cache_hit")
        return True, value

    def store(self, point: SweepPoint, value: Any) -> bool:
        """Persist one completed point; returns False if not cacheable."""
        fingerprint = point.fingerprint()
        if fingerprint is None:
            return False
        if isinstance(value, SimulationResult):
            record = {"kind": "sim", "fingerprint": fingerprint, "value": value.to_jsonable()}
        else:
            record = {"kind": "func", "fingerprint": fingerprint, "value": value}
        # The cache is purely an optimization: a non-JSON-serializable result
        # or an I/O failure (read-only or full cache dir) skips caching
        # rather than failing a point whose simulation already succeeded.
        tmp_path = None
        try:
            os.makedirs(self.root, exist_ok=True)
            path = self._path(fingerprint)
            fd, tmp_path = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            with os.fdopen(fd, "w") as handle:
                json.dump(record, handle, sort_keys=True)
            os.replace(tmp_path, path)  # atomic: concurrent workers write identical content
        except (TypeError, OSError):
            if tmp_path is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp_path)
            return False
        self.stores += 1
        obs_reg = _obs.get_registry()
        if obs_reg is not None:
            obs_reg.inc("sweep.cache_store")
        return True


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def run_point(
    point: SweepPoint,
    *,
    ctx: Optional[ExecutionContext] = None,
    result_cache: Optional[ResultCache] = None,
) -> Tuple[Any, bool]:
    """Execute one sweep point; returns ``(value, came_from_cache)``."""
    if result_cache is not None:
        hit, value = result_cache.load(point)
        if hit:
            return value, True
    if ctx is None:
        ctx = ExecutionContext()
    value = point.execute(ctx)
    if result_cache is not None:
        result_cache.store(point, value)
    return value, False


def execute(
    spec: SweepSpec,
    *,
    trace_cache: Optional[TraceCache] = None,
    result_cache: Optional[ResultCache] = None,
) -> Dict[str, Any]:
    """Run every point of a spec in order; returns ``{point key: result}``.

    This is the engine behind each experiment's ``run(...)``; the runner
    instead runs the same points one at a time (in this process, or across
    ``--jobs N`` worker processes) and folds the results with
    :meth:`SweepSpec.rows`.
    """
    ctx = ExecutionContext(trace_cache)
    results: Dict[str, Any] = {}
    for point in spec.points:
        results[point.key], _ = run_point(point, ctx=ctx, result_cache=result_cache)
    return results
