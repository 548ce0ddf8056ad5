"""``python -m repro.obs.report`` — render telemetry event streams.

Reads the JSONL segments a ``REPRO_OBS=full`` run left under the obs
directory and prints three views:

* **Phase breakdown** — per slow-path boundary phase: call count, total
  seconds, mean and approximate p50/p95 microseconds (from the log2
  histogram).  This is the direct answer to ROADMAP item 1's "where does
  the ~100us/event go" profiling ask.
* **Counter Pareto** — the kernel's bail reasons ranked by frequency with
  cumulative percentages, so the dominant reason is the first line.
* **Worker timeline** — the campaign fabric's lifecycle events
  (spawn/dispatch/complete/fail/quarantine) in chronological order per
  worker.

Exit codes: 0 rendered, 1 no event segments found, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Mapping, Optional

import repro.obs as obs
from repro.obs.events import fold_events, profile_summary
from repro.obs.registry import phase_percentile_us

__all__ = ["main", "render"]


def _phase_table(phases: Mapping[str, object], out: List[str]) -> None:
    out.append("Phase breakdown (slow-path boundary + campaign fabric)")
    header = (
        f"  {'phase':<24} {'calls':>10} {'total_s':>10} "
        f"{'mean_us':>10} {'p50_us':>9} {'p95_us':>9}"
    )
    out.append(header)
    out.append("  " + "-" * (len(header) - 2))

    def total_of(name: str) -> float:
        sample = phases[name]
        if isinstance(sample, dict):
            total = sample.get("total_s", 0.0)
            if isinstance(total, (int, float)):
                return float(total)
        return 0.0

    for name in sorted(phases, key=lambda n: (-total_of(n), n)):
        sample = phases[name]
        if not isinstance(sample, dict):
            continue
        count = sample.get("count", 0)
        calls = count if isinstance(count, int) else 0
        total = total_of(name)
        mean_us = 1e6 * total / calls if calls else 0.0
        p50 = phase_percentile_us(sample, 0.50)
        p95 = phase_percentile_us(sample, 0.95)
        out.append(
            f"  {name:<24} {calls:>10} {total:>10.4f} {mean_us:>10.2f} "
            f"{(f'{p50:.0f}' if p50 is not None else '-'):>9} "
            f"{(f'{p95:.0f}' if p95 is not None else '-'):>9}"
        )


def _pareto(title: str, group: Mapping[str, int], out: List[str]) -> None:
    out.append(title)
    total = sum(group.values())
    if total <= 0:
        out.append("  (no samples)")
        return
    cumulative = 0
    for name in sorted(group, key=lambda n: (-group[n], n)):
        cumulative += group[name]
        out.append(
            f"  {name:<28} {group[name]:>12} {100.0 * group[name] / total:>6.1f}% "
            f"(cum {100.0 * cumulative / total:>5.1f}%)"
        )


def _worker_timeline(workers: List[Dict[str, object]], out: List[str]) -> None:
    out.append("Worker timeline")
    if not workers:
        out.append("  (no lifecycle events)")
        return

    def sort_key(event: Dict[str, object]) -> tuple[float, int]:
        t_s = event.get("t_s", 0.0)
        seq = event.get("seq", 0)
        return (
            float(t_s) if isinstance(t_s, (int, float)) else 0.0,
            seq if isinstance(seq, int) else 0,
        )

    for event in sorted(workers, key=sort_key):
        t_s = event.get("t_s", 0.0)
        stamp = float(t_s) if isinstance(t_s, (int, float)) else 0.0
        what = event.get("event", "?")
        worker = event.get("worker", "?")
        detail_parts = []
        for key in ("task", "attempt", "status", "reason", "pid"):
            if key in event:
                detail_parts.append(f"{key}={event[key]}")
        out.append(f"  t={stamp:>9.3f}s  worker {worker!s:<4} {what!s:<12} "
                   + " ".join(detail_parts))


def render(fold: Mapping[str, object]) -> str:
    """The full text report for one folded event stream."""
    out: List[str] = []
    counters = fold.get("counters")
    phases = fold.get("phases")
    points = fold.get("points")
    workers = fold.get("workers")
    out.append(
        f"repro.obs report — {fold.get('n_events', 0)} events in "
        f"{fold.get('n_segments', 0)} segment(s)"
    )
    out.append("")
    if isinstance(phases, dict) and phases:
        _phase_table(phases, out)
        out.append("")
    profile = profile_summary(fold)
    bail = profile.get("bail_reasons")
    if isinstance(bail, dict) and bail:
        _pareto("Bail-reason Pareto", bail, out)
        out.append("")
    if isinstance(counters, dict) and counters:
        out.append("Counters")
        for name in sorted(counters):
            out.append(f"  {name:<36} {counters[name]:>14}")
        out.append("")
    if isinstance(points, list) and points:
        ok = sum(1 for p in points if p.get("status") == "ok")
        cached = sum(1 for p in points if p.get("cached"))
        out.append(
            f"Campaign points: {len(points)} total, {ok} ok, {cached} cached"
        )
        out.append("")
    if isinstance(workers, list):
        _worker_timeline(workers, out)
    return "\n".join(out).rstrip() + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report", description=__doc__
    )
    parser.add_argument(
        "--obs-dir",
        default=None,
        metavar="DIR",
        help="directory holding JSONL event segments "
        "(default: REPRO_OBS_DIR or results/obs)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the folded digest as canonical JSON instead of text",
    )
    args = parser.parse_args(argv)

    directory = args.obs_dir if args.obs_dir is not None else obs.events_dir()
    fold = fold_events(directory)
    if fold is None:
        print(f"no obs event segments under {directory}", file=sys.stderr)
        print(
            "run a campaign with REPRO_OBS=full to produce them", file=sys.stderr
        )
        return 1
    if args.json:
        print(json.dumps(fold, indent=2, sort_keys=True))
    else:
        sys.stdout.write(render(fold))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
