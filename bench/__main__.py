"""Command line of the repository benchmark.

Usage (from the repository root)::

    python3 -m bench run --seed 42 [--repeats 5] [--seconds 24] [--quick]
    python3 -m bench run --workload paper-grid --seed 7 --seconds 24 --trace 0
    python3 -m bench compare results/bench/A.json results/bench/B.json
    python3 -m bench pin

``run`` without ``--workload`` times every workload round-robin, ``--repeats``
rounds with the first workload rotating, then makes one traced run of each.
With ``--workload`` it makes the runs of that workload alone and prints, as
its last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``.  ``pin`` re-derives
``bench/pins.json`` (the digests and deterministic counters every run is
checked against) after an intended change to the simulated model.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

from bench import (
    OUTPUT_DIR,
    PINS_PATH,
    REPO_ROOT,
    SIZES,
    SRC_DIR,
    WORKERS,
    WORKLOAD_NAMES,
    benchmark_spec,
    load_json,
    speed,
)
from bench.stats import summarize, verdict

#: Per-layer counters that depend only on the inputs: pinned, and compared
#: exactly by ``compare``.
DET_METRICS = (
    "workloads.accesses_generated",
    "sim.accesses",
    "sim.simulated_cycles",
    "core.invalidations",
    "core.downgrades",
    "core.reductions",
    "core.partial_reductions",
    "interconnect.offchip_bytes",
    "interconnect.onchip_bytes",
    "interconnect.surcharge_cycles",
)

#: The seed ``pin`` derives ``bench/pins.json`` at: the workloads' own default.
PIN_SEED = 42

#: Runs (fresh child processes) per workload in a single-workload ``run``,
#: so set-up is measured several times; each gets a third of the budget.
RUNS_PER_WORKLOAD = 3

#: A single-workload invocation kills its children past this many seconds.
INVOCATION_CAP_S = 170.0

#: Reported next to the end-to-end metrics; a failed point fails the run,
#: so it is not a bounded metric of its own.
FAILED_FRAC = {"name": "failed_frac", "unit": "ratio", "better": "lower", "bound": 0.0}
#: The unscaled times behind ``wall_s`` and ``setup_s`` (see ``bench.speed``):
#: printed and stored for reference, never judged, since host drift swamps them.
RAW_WALL = {"name": "raw_wall_s", "unit": "s", "better": "lower", "bound": None}
RAW_SETUP = {"name": "raw_setup_s", "unit": "s", "better": "lower", "bound": None}

SHM_DIR = "/dev/shm"
SHM_PREFIX = "repro_shm_"


class BenchError(Exception):
    """The benchmark could not run (as opposed to a run that failed checks)."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def _reclaim_stale_segments() -> None:
    """Unlink shared-memory traces leaked by dead campaigns, as the runner does."""
    # The benchmark measures the checkout it sits in, never an installed copy.
    if not os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")):
        raise BenchError(f"no reproduction sources under {SRC_DIR}")
    sys.path.insert(0, SRC_DIR)
    from repro.experiments.sweep import reclaim_stale_segments

    reclaimed = reclaim_stale_segments()
    if reclaimed:
        print(f"reclaimed stale shared-memory segments: {', '.join(reclaimed)}", file=sys.stderr)


def _leaked_segments(pid: int) -> List[str]:
    if not os.path.isdir(SHM_DIR):
        return []
    prefix = f"{SHM_PREFIX}{pid}_"
    leaked = [name for name in os.listdir(SHM_DIR) if name.startswith(prefix)]
    for name in leaked:
        try:
            os.unlink(os.path.join(SHM_DIR, name))
        except OSError:
            pass
    return leaked


def _stop_group(pgid: int) -> None:
    """Kill whatever is left of a child's process group and wait for it to go."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def _stamp() -> str:
    """A file-name suffix no other invocation shares."""
    return f"{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}"


def _stop_samplers(samplers: List[subprocess.Popen]) -> None:
    """Close each sampler's input, which makes it write its samples and exit."""
    for sampler in samplers:
        if sampler.stdin is not None and not sampler.stdin.closed:
            sampler.stdin.close()
    for sampler in samplers:
        try:
            sampler.wait(timeout=10)
        except subprocess.TimeoutExpired:
            sampler.kill()
            sampler.wait()


def run_child(
    workload: str,
    seed: int,
    size: str,
    deadline: float,
    *,
    traced: bool,
    hard_deadline: float,
    expected_unit_s: Optional[float] = None,
    final_deadline: Optional[float] = None,
) -> Dict[str, Any]:
    """One benchmark run in a fresh process; adds ``peak_rss_mb`` to its report.

    Deadlines are ``time.monotonic`` readings.  Without ``expected_unit_s``
    the child times at least one unit; with it, the child times a first unit
    only if one that long would end by ``final_deadline``.  It starts no
    further unit it expects to end after ``deadline``, and it is killed at
    ``hard_deadline``.

    The child keeps to as many CPUs as the workload has workers, and a
    ``bench.speed`` sampler runs on each of them; every unit gets a
    ``ref_wall_s`` from their readings, and set-up a ``ref_setup_s``.

    Peak RSS comes from ``os.wait4``'s rusage, which covers the child and
    every descendant it waited for (the campaign's workers).
    """
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"run-{workload}-", dir=OUTPUT_DIR)
    env = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
    env.update(SIZES[size][workload])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    env["TMPDIR"] = work_dir
    if traced:
        env["REPRO_OBS"] = "counters"
    log_path = os.path.join(work_dir, "child.log")
    cpus = sorted(os.sched_getaffinity(0))[-WORKERS[workload]:]
    speed_paths = [os.path.join(work_dir, f"speed-{cpu}.json") for cpu in cpus]
    samplers: List[subprocess.Popen] = []
    spawned = time.monotonic()
    arguments = {
        "workload": workload,
        "seed": seed,
        "quick": size == "quick",
        "traced": traced,
        "spawned": spawned,
        "deadline": deadline,
        "final_deadline": deadline if final_deadline is None else final_deadline,
        "expected_unit_s": expected_unit_s,
        "cpus": cpus,
        "work_dir": work_dir,
        "out": os.path.join(work_dir, "report.json"),
        "trace_out": os.path.join(OUTPUT_DIR, f"trace-{workload}-{size}-seed{seed}-{_stamp()}.json"),
    }
    try:
        with open(log_path, "w") as log:
            for cpu, path in zip(cpus, speed_paths):
                samplers.append(
                    subprocess.Popen(
                        [sys.executable, "-m", "bench.speed", str(cpu), path],
                        cwd=REPO_ROOT,
                        stdin=subprocess.PIPE,
                        stdout=log,
                        stderr=log,
                    )
                )
            child = subprocess.Popen(
                [sys.executable, "-m", "bench.child", json.dumps(arguments)],
                cwd=REPO_ROOT,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=log,
                start_new_session=True,
            )
        timed_out = False
        while True:
            pid, status, usage = os.wait4(child.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > hard_deadline:
                timed_out = True
                os.killpg(child.pid, signal.SIGKILL)
                pid, status, usage = os.wait4(child.pid, 0)
                break
            time.sleep(0.02)
        child.returncode = os.waitstatus_to_exitcode(status)
        _stop_group(child.pid)
        _stop_samplers(samplers)
        leaked = _leaked_segments(child.pid)
        try:
            report = load_json(arguments["out"])
        except (OSError, ValueError):
            report = {}
        if timed_out or child.returncode != 0 or "error" in report or leaked:
            with open(log_path) as log:
                detail = report.get("error") or log.read()[-4000:]
            reason = "timed out" if timed_out else f"exited {child.returncode}"
            if leaked:
                reason += f", leaked shared memory {leaked}"
            raise BenchError(f"{workload} run {reason}:\n{detail}")
        report["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        samples = [tuple(sample) for path in speed_paths for sample in load_json(path)]
        report["ref_setup_s"] = report["setup_s"] * speed.reference_factor(samples, spawned, report["setup_end"])
        for unit in report["units"]:
            unit["ref_wall_s"] = unit["wall_s"] * speed.reference_factor(samples, unit["start"], unit["end"])
        return report
    finally:
        _stop_samplers(samplers)
        shutil.rmtree(work_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def load_pins() -> Dict[str, Any]:
    try:
        return load_json(PINS_PATH)
    except OSError:
        return {}


def pinned(pins: Dict[str, Any], size: str, workload: str, seed: int) -> Optional[Dict[str, Any]]:
    """The pinned outputs for this run, if any apply.

    Campaign inputs do not depend on the seed, so their pins apply at every
    seed; the other workloads are pinned at ``PIN_SEED`` only.
    """
    entry = pins.get(size, {}).get(workload)
    if entry is not None and (workload.startswith("campaign") or seed == PIN_SEED):
        return entry
    return None


class Verifier:
    """Checks one workload's outputs against its pins or, unpinned, against
    its own first unit (every repeat of a seed must agree exactly)."""

    def __init__(self, workload: str, expected: Optional[Dict[str, Any]]) -> None:
        self.workload = workload
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def _reference(self, unit: Dict[str, Any]) -> Dict[str, Any]:
        if self.expected is None:
            self.expected = {
                "digest": unit["digest"],
                "points": unit["points"],
                "det": {name: unit["counts"][name] for name in DET_METRICS if name in unit["counts"]},
            }
        return self.expected

    def unit(self, unit: Dict[str, Any]) -> Tuple[int, int]:
        """Check one unit; returns its ``(attempted, failed)`` points."""
        expected = self._reference(unit)
        failed = unit["failed"]
        problems = list(unit["problems"])
        if unit["points"] is not None:
            wrong = [key for key, digest in unit["points"].items() if expected["points"].get(key) != digest]
            if wrong:
                problems.append(f"digest mismatch on {', '.join(wrong)}")
                failed += len(wrong)
        elif unit["digest"] != expected["digest"]:
            problems.append(f"output digest {unit['digest'][:12]} != expected {expected['digest'][:12]}")
            failed = unit["attempted"]
        wrong_counts = [
            name
            for name, value in expected["det"].items()
            if name in unit["counts"] and unit["counts"][name] != value
        ]
        if wrong_counts:
            problems.append(f"deterministic counters changed: {', '.join(wrong_counts)}")
            failed = unit["attempted"]
        failed = min(failed, unit["attempted"])
        self.attempted += unit["attempted"]
        self.failed += failed
        self.problems += [f"{self.workload}: {problem}" for problem in problems]
        return unit["attempted"], failed

    def layers(self, layers: Dict[str, float]) -> None:
        """Check a traced run's deterministic counters."""
        for name, value in (self.expected or {}).get("det", {}).items():
            if layers.get(name) != value:
                self.problems.append(f"{self.workload}: {name} = {layers.get(name)}, pinned {value}")
                self.failed += 1


def campaign_accesses(pins: Dict[str, Any], size: str) -> int:
    entry = pins.get(size, {}).get("campaign-serial")
    if entry is None:
        raise BenchError(f"no pinned campaign access count for size {size!r}; run `python -m bench pin`")
    return int(entry["accesses"])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def run_metrics(report: Dict[str, Any], verifier: Verifier, accesses: Optional[int]) -> Dict[str, float]:
    """One run's end-to-end metrics (medians over its units); only the
    set-up times from a run that timed no unit.  Times are in reference
    seconds (``bench.speed``), except the ``raw_*`` ones."""
    if not report["units"]:
        return {"setup_s": report["ref_setup_s"], "raw_setup_s": report["setup_s"]}
    attempted = failed = 0
    for unit in report["units"]:
        unit_attempted, unit_failed = verifier.unit(unit)
        attempted += unit_attempted
        failed += unit_failed
    wall = statistics.median(unit["ref_wall_s"] for unit in report["units"])
    count = accesses if accesses is not None else report["units"][0]["accesses"]
    return {
        "wall_s": wall,
        "accesses_per_s": count / wall,
        "setup_s": report["ref_setup_s"],
        "peak_rss_mb": report["peak_rss_mb"],
        "failed_frac": failed / attempted,
        "raw_wall_s": statistics.median(unit["wall_s"] for unit in report["units"]),
        "raw_setup_s": report["setup_s"],
    }


def traced_metrics(report: Dict[str, Any], untraced_wall_s: float) -> Dict[str, float]:
    layers = dict(report["layers"])
    traced_walls = [unit["ref_wall_s"] for unit in report["units"] if unit["group"].startswith("A")]
    layers["trace.overhead_pct"] = (statistics.median(traced_walls) / untraced_wall_s - 1.0) * 100.0
    return layers


def _format(value: float) -> str:
    return f"{value:.10g}" if isinstance(value, float) else str(value)


def print_end_to_end(samples: Dict[str, Dict[str, List[float]]], metrics: List[Dict[str, Any]]) -> None:
    print(f"{'workload':<16} {'metric':<16} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}")
    for workload, values in samples.items():
        for metric in metrics:
            median, q1, q3, n = summarize(values[metric["name"]])
            print(
                f"{workload:<16} {metric['name']:<16} {metric['unit']:<6} "
                f"{_format(median):>12} {_format(q1):>12} {_format(q3):>12} {n:>3}"
            )


def print_layers(layers: Dict[str, Dict[str, float]], metrics: List[Dict[str, Any]]) -> None:
    for workload, values in layers.items():
        print(f"-- per-layer metrics, traced run of {workload}")
        for metric in metrics:
            det = " (det)" if metric["name"] in DET_METRICS else ""
            print(f"{workload:<16} {metric['name']:<34} {metric['unit']:<6} {_format(values[metric['name']]):>14}{det}")


def write_result(name: str, payload: Dict[str, Any]) -> str:
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    path = os.path.join(OUTPUT_DIR, f"{name}-{_stamp()}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    return path


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    spec = benchmark_spec()
    size = "quick" if args.quick else "full"
    seconds = args.seconds if args.seconds is not None else (1 if args.quick else spec["run_seconds"])
    end_to_end = spec["end_to_end"] + [FAILED_FRAC, RAW_WALL, RAW_SETUP]
    per_layer = spec["per_layer"]
    pins = load_pins()
    _reclaim_stale_segments()

    workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    verifiers = {w: Verifier(w, pinned(pins, size, w, args.seed)) for w in workloads}
    accesses = {w: campaign_accesses(pins, size) if w.startswith("campaign") else None for w in workloads}
    samples: Dict[str, Dict[str, List[float]]] = {w: {m["name"]: [] for m in end_to_end} for w in workloads}
    layers: Dict[str, Dict[str, float]] = {}
    started = time.monotonic()
    hard_deadline = started + INVOCATION_CAP_S if args.workload else float("inf")

    def untraced(workload: str, deadline: float, **schedule: Optional[float]) -> Optional[float]:
        """One untraced run; returns the wall time of its last unit, if any."""
        cap = min(hard_deadline, time.monotonic() + INVOCATION_CAP_S)
        report = run_child(workload, args.seed, size, deadline, traced=False, hard_deadline=cap, **schedule)
        for name, value in run_metrics(report, verifiers[workload], accesses[workload]).items():
            samples[workload][name].append(value)
        return report["units"][-1]["wall_s"] if report["units"] else schedule.get("expected_unit_s")

    def traced(workload: str, deadline: float) -> None:
        cap = min(hard_deadline, time.monotonic() + INVOCATION_CAP_S)
        report = run_child(workload, args.seed, size, deadline, traced=True, hard_deadline=cap)
        for unit in report["units"]:
            verifiers[workload].unit(unit)
        verifiers[workload].layers(report["layers"])
        layers[workload] = traced_metrics(report, statistics.median(samples[workload]["wall_s"]))

    # A single-workload invocation spaces its runs' deadlines over the whole
    # budget, so a run that overshoots its share shortens the next one.  Only
    # the first run must time a unit: a later one times a unit only if one
    # as long as the last would end within the budget, so a workload whose
    # unit outlasts the budget (a campaign) still sets up three times but
    # runs once.
    if args.workload and args.trace:
        untraced(args.workload, started + seconds / 3)
        traced(args.workload, started + seconds)
    elif args.workload:
        expected = None
        for index in range(RUNS_PER_WORKLOAD):
            expected = untraced(
                args.workload,
                started + seconds * (index + 1) / RUNS_PER_WORKLOAD,
                expected_unit_s=expected,
                final_deadline=started + seconds,
            )
    else:
        for round_index in range(args.repeats):
            first = round_index % len(workloads)
            for workload in workloads[first:] + workloads[:first]:
                untraced(workload, time.monotonic() + seconds / RUNS_PER_WORKLOAD)
        for workload in workloads:
            traced(workload, time.monotonic() + 2 * seconds / 3)

    problems = [problem for v in verifiers.values() for problem in v.problems]
    digests = {w: (v.expected or {}).get("digest") for w, v in verifiers.items()}
    attempted = sum(v.attempted for v in verifiers.values())
    failed = sum(v.failed for v in verifiers.values())
    correct = failed == 0 and not problems

    if not (args.workload and args.trace):
        print_end_to_end(samples, end_to_end)
    if layers:
        print_layers(layers, per_layer)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result_path = write_result(
        f"result-{args.workload or 'all'}-seed{args.seed}" + ("-trace" if args.workload and args.trace else ""),
        {
            "seed": args.seed,
            "size": size,
            "seconds": seconds,
            "correct": correct,
            "problems": problems,
            "workloads": {
                w: {"end_to_end": samples[w], "per_layer": layers.get(w), "digest": digests[w]} for w in workloads
            },
        },
    )
    print(f"result file: {os.path.relpath(result_path, REPO_ROOT)} ({time.monotonic() - started:.1f}s)")

    if args.workload:
        chosen = per_layer if args.trace else spec["end_to_end"]
        values = layers[args.workload] if args.trace else {
            m["name"]: statistics.median(samples[args.workload][m["name"]]) for m in chosen
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}
    else:
        metrics = {}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _cell(values: List[float]) -> str:
    median, q1, q3, n = summarize(values)
    return f"{_format(median)} [{_format(q1)}, {_format(q3)}] {n}"


def cmd_compare(args: argparse.Namespace) -> int:
    spec = benchmark_spec()
    base, change = load_json(args.base), load_json(args.change)
    if (base["size"], base["seed"]) != (change["size"], change["seed"]):
        raise BenchError("compare needs two results of the same size and seed")
    rows: List[Tuple[str, str, str, str, str]] = []
    for workload, a in base["workloads"].items():
        b = change["workloads"].get(workload)
        if b is None:
            continue
        for metric in spec["end_to_end"] + [FAILED_FRAC]:
            old, new = a["end_to_end"][metric["name"]], b["end_to_end"][metric["name"]]
            if old and new:
                outcome = verdict(old, new, better=metric["better"], bound=metric["bound"])
                rows.append((workload, metric["name"], _cell(old), _cell(new), outcome))
        if a["per_layer"] and b["per_layer"]:
            for name in DET_METRICS:
                old, new = [a["per_layer"][name]], [b["per_layer"][name]]
                outcome = verdict(old, new, better="lower", bound=0.0, exact=True)
                rows.append((workload, name, _cell(old), _cell(new), outcome))
        if a["digest"] and b["digest"]:
            outcome = "same" if a["digest"] == b["digest"] else "worse"
            rows.append((workload, "digest", a["digest"][:16], b["digest"][:16], outcome))
    print(f"{'workload':<16} {'metric':<30} {'base median [q1, q3] n':>36} {'change median [q1, q3] n':>36}  verdict")
    for workload, name, old_cell, new_cell, outcome in rows:
        print(f"{workload:<16} {name:<30} {old_cell:>36} {new_cell:>36}  {outcome}")
    return 1 if any(row[4] == "worse" for row in rows) else 0


def cmd_pin(args: argparse.Namespace) -> int:
    pins: Dict[str, Any] = {}
    _reclaim_stale_segments()
    for size in SIZES:
        entries: Dict[str, Dict[str, Any]] = {}
        for workload in WORKLOAD_NAMES:
            report = run_child(workload, PIN_SEED, size, time.monotonic(), traced=True, hard_deadline=float("inf"))
            digests = {unit["digest"] for unit in report["units"]}
            if len(digests) != 1:
                raise BenchError(f"{workload} ({size}) is not deterministic: digests {sorted(digests)}")
            unit = report["units"][0]
            entries[workload] = {
                "digest": unit["digest"],
                "points": unit["points"],
                "accesses": unit["accesses"],
                "det": {name: report["layers"][name] for name in DET_METRICS},
            }
            print(f"pinned {size} {workload}: {unit['digest'][:16]}")
        if entries["campaign-serial"]["digest"] != entries["campaign-jobs2"]["digest"]:
            raise BenchError(f"serial and --jobs 2 campaigns differ at size {size}")
        for workload in ("campaign-serial", "campaign-jobs2"):
            entries[workload]["accesses"] = entries["campaign-serial"]["det"]["sim.accesses"]
        pins[size] = entries
    with open(PINS_PATH, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="time the workloads and check their outputs")
    run.add_argument("--workload", choices=WORKLOAD_NAMES, help="run this workload alone; the last line is a JSON summary")
    run.add_argument("--seed", type=int, default=PIN_SEED, help=f"workload seed (default {PIN_SEED}, the workloads' own)")
    run.add_argument("--seconds", type=float, default=None, help="budget per workload (default: BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0, help="with --workload: report per-layer metrics")
    run.add_argument("--repeats", type=int, default=5, help="rounds over all workloads (default 5)")
    run.add_argument("--quick", action="store_true", help="smoke-test sizes, one round")
    compare = commands.add_parser("compare", help="judge a change's result file against a base result file")
    compare.add_argument("base")
    compare.add_argument("change")
    commands.add_parser("pin", help=f"rewrite bench/pins.json from runs at seed {PIN_SEED}")
    args = parser.parse_args(argv)
    if args.command == "run" and args.quick:
        args.repeats = 1
    try:
        return {"run": cmd_run, "compare": cmd_compare, "pin": cmd_pin}[args.command](args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
