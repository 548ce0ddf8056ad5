"""One benchmark run: a fresh process that sets a workload up once, then
times units of it until its budget ends.

The parent starts it as ``python -m bench.child '<json arguments>'`` with the
workload's environment already in place, and reads the JSON it writes to
``arguments["out"]``.  Set-up time runs from the parent's spawn stamp (a
``time.monotonic`` reading, which is system-wide) to the end of set-up, so
it covers interpreter start, imports and the workload's own set-up.  Every
unit reports its ``time.monotonic`` start and end too, so the parent can
scale it by the host speed its samplers saw (``bench.speed``).

The run keeps to ``arguments["cpus"]``, where the parent's samplers run.

A traced run installs pass A before set-up and, on workloads that have one,
pass B halfway through its budget; it writes its spans to
``arguments["trace_out"]`` and reports per-layer metrics.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

from bench import WORKERS

#: Per-layer metrics taken from pass B units when the workload has a pass B.
PASS_B_METRICS = (
    "core.resolve_slow_calls",
    "core.resolve_slow_s",
    "core.us_per_slow_event",
    "core.resolve_slow_batch_calls",
    "core.resolve_slow_batch_s",
    "sim.self_s",
)


def _counters(registry: Any) -> Dict[str, int]:
    return dict(registry.snapshot()["counters"]) if registry is not None else {}


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {name: value - before.get(name, 0) for name, value in after.items()}


def _layers(recorder: Any, units: List[Dict[str, Any]], setup: Dict[str, Any], workers: int) -> Dict[str, float]:
    """Median per-unit layer metrics; set-up's value for set-up-only layers."""
    from bench import tracing

    own = tracing.self_times(recorder.spans)

    def metrics(group: str, counts: Dict[str, Any], registry: Dict[str, int], wall_s: float) -> Dict[str, float]:
        return tracing.group_metrics(recorder.spans, own, group, counts, registry, wall_s, workers)

    setup_metrics = metrics("setup", setup["counts"], setup["registry"], setup["wall_s"])
    per_unit = [metrics(unit["group"], unit["counts"], unit["registry"], unit["wall_s"]) for unit in units]
    pass_a = [m for m, unit in zip(per_unit, units) if unit["group"].startswith("A")]
    pass_b = [m for m, unit in zip(per_unit, units) if unit["group"].startswith("B")]
    layers: Dict[str, float] = {}
    for name in setup_metrics:
        source = pass_b if pass_b and name in PASS_B_METRICS else pass_a
        values = [m[name] for m in source]
        layers[name] = statistics.median_low(values) if any(values) else setup_metrics[name]
    return layers


def run(arguments: Dict[str, Any]) -> Dict[str, Any]:
    from bench import tracing

    recorder: Optional[tracing.SpanRecorder] = None
    if arguments["traced"]:
        recorder = tracing.SpanRecorder()
        tracing.install_pass_a(recorder)

    from repro import obs

    from bench.workloads import WORKLOADS

    workload = WORKLOADS[arguments["workload"]]
    registry = obs.get_registry()
    before = _counters(registry)
    state = workload.setup(arguments["seed"], arguments["quick"], recorder)
    setup_end = time.monotonic()
    setup_s = setup_end - arguments["spawned"]
    setup = {
        "wall_s": setup_s,
        "counts": getattr(state, "counts", {}),
        "registry": _delta(_counters(registry), before),
    }

    phases = ["A", "B"] if recorder is not None and workload.pass_b else ["A" if recorder is not None else "U"]
    start = time.monotonic()
    share = max(0.0, arguments["deadline"] - start) / len(phases)
    units: List[Dict[str, Any]] = []
    # Without an expected unit time the run times at least one unit per
    # phase.  With one, its first unit must be expected to end by
    # ``final_deadline`` (a run may then only set up), and each further unit
    # by the phase's share of ``deadline``.
    must_time = arguments["expected_unit_s"] is None
    last = arguments["expected_unit_s"] or 0.0
    for index, phase in enumerate(phases):
        if phase == "B":
            tracing.install_pass_b(recorder)
        phase_deadline = start + share * (index + 1)
        timed = 0
        while True:
            now = time.monotonic()
            if timed == 0 and not must_time and now + last > arguments["final_deadline"]:
                break
            if timed > 0 and now + last > phase_deadline:
                break
            timed += 1
            group = f"{phase}{len(units)}"
            if recorder is not None:
                recorder.group = group
            before = _counters(registry)
            unit_start = time.monotonic()
            unit = workload.unit(state, arguments["work_dir"], recorder)
            unit_end = time.monotonic()
            unit["registry"] = _delta(_counters(registry), before)
            unit["group"] = group
            unit["start"], unit["end"] = unit_start, unit_end
            last = unit_end - unit_start
            units.append(unit)

    report: Dict[str, Any] = {"setup_s": setup_s, "setup_end": setup_end, "units": units, "layers": None}
    if recorder is not None:
        report["layers"] = _layers(recorder, units, setup, WORKERS[arguments["workload"]])
        with open(arguments["trace_out"], "w") as handle:
            json.dump(
                {"workload": arguments["workload"], "seed": arguments["seed"], "spans": recorder.to_jsonable()},
                handle,
            )
    for unit in units:
        unit["counts"].pop("runner.point_elapsed", None)
    return report


def main(argv: List[str]) -> int:
    arguments = json.loads(argv[1])
    os.sched_setaffinity(0, arguments["cpus"])
    try:
        report = run(arguments)
        status = 0
    except Exception:
        report = {"error": traceback.format_exc()}
        status = 1
    with open(arguments["out"], "w") as handle:
        json.dump(report, handle)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
