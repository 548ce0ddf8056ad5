"""Repository benchmark: campaign wall time and simulator throughput.

``python -m bench run`` times four workloads in fresh child processes and
prints every end-to-end metric named in ``BENCHMARK.json``; with
``--trace 1`` it prints the per-layer metrics of a traced pass instead.
``python -m bench compare A.json B.json`` judges two result files against
the bounds in ``BENCHMARK.json``.  See ``bench/README.md``.

This module stays import-light (standard library only): the parent process
imports it before any child sets the reproduction's environment.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
#: Everything the benchmark writes goes under here (git-ignored ``results/``).
OUTPUT_DIR = os.path.join(REPO_ROOT, "results", "bench")
PINS_PATH = os.path.join(REPO_ROOT, "bench", "pins.json")

WORKLOAD_NAMES = ("campaign-serial", "campaign-jobs2", "paper-grid", "hitrun")

#: Processes that execute each workload's sweep points: the CPUs a run may
#: use, and the busy-fraction denominator.
WORKERS: Dict[str, int] = {"campaign-serial": 1, "campaign-jobs2": 2, "paper-grid": 1, "hitrun": 1}

#: Child-process environment per size and workload.  The campaigns take
#: their size through the environment because the runner reads it at import.
SIZES: Dict[str, Dict[str, Dict[str, str]]] = {
    "full": {
        "campaign-serial": {"REPRO_SCALE": "0.15", "REPRO_MAX_CORES": "32"},
        "campaign-jobs2": {"REPRO_SCALE": "0.15", "REPRO_MAX_CORES": "32"},
        "paper-grid": {"REPRO_SCALE": "4.0"},
        "hitrun": {"REPRO_SCALE": "3.0"},
    },
    "quick": {
        "campaign-serial": {"REPRO_SCALE": "0.02", "REPRO_MAX_CORES": "4"},
        "campaign-jobs2": {"REPRO_SCALE": "0.02", "REPRO_MAX_CORES": "4"},
        "paper-grid": {"REPRO_SCALE": "0.05"},
        "hitrun": {"REPRO_SCALE": "0.05"},
    },
}


def load_json(path: str) -> Any:
    with open(path) as handle:
        return json.load(handle)


def benchmark_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the workloads, metrics, units and bounds."""
    return load_json(os.path.join(REPO_ROOT, "BENCHMARK.json"))
