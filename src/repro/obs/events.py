"""JSONL event segments: the obs subsystem's on-disk stream format.

Each emitting process appends to its **own** segment file
(``<stream>-<pid>-<k>.jsonl`` under the obs directory), so campaign
workers and the parent runner never contend for a file and a killed
worker can at worst tear its own tail.  Records are one canonical JSON
object per line::

    {"kind": "point_done", "pid": 1234, "seq": 7, "t_s": 12.03, ...}

``t_s`` is seconds since the writer opened, read through the obs
registry's clock (this module contains no direct wall-clock call — rule
D103 covers ``repro.obs`` and only :mod:`repro.obs.registry` is
allowlisted).

Readers (:func:`read_events`, :func:`fold_events`) degrade silently:
malformed lines (torn tails) and foreign files are skipped, never
raised, because the fold runs inside ``scripts/collect_results.py`` where
a damaged telemetry stream must not abort result collection.
"""

from __future__ import annotations

import glob
import json
import os
from types import TracebackType
from typing import Dict, IO, List, Mapping, Optional, Type

from repro.obs import registry as _registry

__all__ = [
    "EventWriter",
    "fold_events",
    "process_writer",
    "profile_summary",
    "read_events",
    "read_segment",
    "reset_process_writer",
]

SEGMENT_SUFFIX = ".jsonl"


class EventWriter:
    """Append-only JSONL segment writer for one process and stream."""

    __slots__ = ("_handle", "_pid", "_seq", "_t0", "path")

    def __init__(self, directory: str, stream: str) -> None:
        os.makedirs(directory, exist_ok=True)
        self._pid = os.getpid()
        handle: Optional[IO[str]] = None
        path = ""
        for suffix in range(1000):
            path = os.path.join(
                directory, f"{stream}-{self._pid:07d}-{suffix:03d}{SEGMENT_SUFFIX}"
            )
            try:
                handle = open(path, "x", encoding="utf-8")
            except FileExistsError:
                continue
            break
        if handle is None:  # pragma: no cover - 1000 live segments for one pid
            raise OSError(f"cannot allocate an event segment under {directory}")
        self.path = path
        self._handle = handle
        self._seq = 0
        self._t0 = _registry.clock()

    def emit(self, kind: str, fields: Optional[Mapping[str, object]] = None) -> None:
        """Append one event record and flush it to the OS."""
        record: Dict[str, object] = dict(fields) if fields else {}
        record["kind"] = kind
        record["pid"] = self._pid
        record["seq"] = self._seq
        record["t_s"] = round(_registry.clock() - self._t0, 6)
        self._handle.write(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        )
        self._handle.flush()
        self._seq += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "EventWriter":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()


# -- per-process lazy writer (campaign workers) -----------------------------
#
# Workers are forked/spawned by the supervisor and have no natural place to
# thread a writer handle through; they fetch one lazily.  The cached writer
# is keyed by pid so a fork never inherits (and interleaves into) its
# parent's open segment.

_process_writer: Optional[EventWriter] = None
_process_writer_pid: Optional[int] = None


def process_writer(directory: str, stream: str = "worker") -> EventWriter:
    """This process's lazily-opened segment writer (fork-safe)."""
    global _process_writer, _process_writer_pid
    if _process_writer is None or _process_writer_pid != os.getpid():
        _process_writer = EventWriter(directory, stream)
        _process_writer_pid = os.getpid()
    return _process_writer


def reset_process_writer() -> None:
    """Close and drop the cached per-process writer (tests use this)."""
    global _process_writer, _process_writer_pid
    if _process_writer is not None:
        _process_writer.close()
    _process_writer = None
    _process_writer_pid = None


# -- readers ----------------------------------------------------------------


def read_segment(path: str) -> List[Dict[str, object]]:
    """Parse one segment, skipping malformed lines (torn tails)."""
    events: List[Dict[str, object]] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail or foreign line
                if isinstance(record, dict) and "kind" in record:
                    events.append(record)
    except OSError:
        return []
    return events


def read_events(directory: str) -> List[Dict[str, object]]:
    """All events from every segment under ``directory``, in a deterministic
    (segment-name, then in-file) order.  Missing directory -> empty list."""
    events: List[Dict[str, object]] = []
    for path in sorted(glob.glob(os.path.join(directory, f"*{SEGMENT_SUFFIX}"))):
        events.extend(read_segment(path))
    return events


def fold_events(directory: str) -> Optional[Dict[str, object]]:
    """Aggregate every segment under ``directory`` into one digest.

    Returns ``None`` when no events exist (so callers can degrade
    silently).  The digest carries:

    * ``counters`` — summed across every ``point_obs`` / ``campaign_obs``
      registry-delta event;
    * ``phases`` — merged timing histograms, same sources;
    * ``points`` — one entry per ``point_done`` campaign event;
    * ``workers`` — supervisor lifecycle events, chronological per pid.
    """
    events = read_events(directory)
    if not events:
        return None
    n_segments = len(
        glob.glob(os.path.join(directory, f"*{SEGMENT_SUFFIX}"))
    )
    counters: Dict[str, int] = {}
    phases: Dict[str, _registry.PhaseAggregate] = {}
    points: List[Dict[str, object]] = []
    workers: List[Dict[str, object]] = []
    for event in events:
        kind = event.get("kind")
        if kind in ("point_obs", "campaign_obs"):
            event_counters = event.get("counters")
            if isinstance(event_counters, dict):
                for name in sorted(event_counters):
                    value = event_counters[name]
                    if isinstance(value, int):
                        counters[name] = counters.get(name, 0) + value
            event_phases = event.get("phases")
            if isinstance(event_phases, dict):
                for name in sorted(event_phases):
                    sample = event_phases[name]
                    if isinstance(sample, dict):
                        _registry.merge_phase(phases, name, sample)
        elif kind == "point_done":
            points.append(event)
        elif kind == "worker":
            workers.append(event)
    return {
        "counters": {name: counters[name] for name in sorted(counters)},
        "n_events": len(events),
        "n_segments": n_segments,
        "phases": {name: dict(phases[name]) for name in sorted(phases)},
        "points": points,
        "workers": workers,
    }


def profile_summary(
    fold: Mapping[str, object], top_phases: int = 5
) -> Dict[str, object]:
    """Compact profile for ``summary.json``: top boundary-phase costs plus
    the bail-reason counter group."""
    phases = fold.get("phases")
    counters = fold.get("counters")
    phase_rows: List[Dict[str, object]] = []
    if isinstance(phases, dict):
        def total_of(name: str) -> float:
            sample = phases[name]
            total = sample.get("total_s", 0.0) if isinstance(sample, dict) else 0.0
            return float(total) if isinstance(total, (int, float)) else 0.0

        ranked = sorted(phases, key=lambda name: (-total_of(name), name))
        for name in ranked[:top_phases]:
            sample = phases[name]
            if not isinstance(sample, dict):
                continue
            count = sample.get("count", 0)
            total = total_of(name)
            calls = count if isinstance(count, int) else 0
            phase_rows.append(
                {
                    "calls": calls,
                    "mean_us": round(1e6 * total / calls, 3) if calls else 0.0,
                    "phase": name,
                    "total_s": round(total, 6),
                }
            )

    def counter_group(prefix: str) -> Dict[str, int]:
        group: Dict[str, int] = {}
        if isinstance(counters, dict):
            for name in sorted(counters):
                value = counters[name]
                if name.startswith(prefix) and isinstance(value, int):
                    group[name[len(prefix):]] = value
        return group

    return {
        "bail_reasons": counter_group("kernel.bail."),
        "top_phases": phase_rows,
    }
