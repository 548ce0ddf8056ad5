"""``python -m bench run --quick`` runs clean and prints every metric."""

from __future__ import annotations

import json
import os
import subprocess
import sys

from bench import REPO_ROOT, benchmark_spec


def test_quick_run_prints_every_metric():
    result = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--quick"],
        cwd=REPO_ROOT,
        env={name: value for name, value in os.environ.items() if not name.startswith("REPRO_")},
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    spec = benchmark_spec()
    rows = [line.split() for line in result.stdout.splitlines()]
    printed = {(row[0], row[1]) for row in rows if len(row) > 2}
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"] + spec["per_layer"]:
            assert (workload, metric["name"]) in printed, (workload, metric["name"])
    summary = json.loads(result.stdout.splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
