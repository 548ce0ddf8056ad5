"""Golden results with the interconnect contention model switched on.

``test_golden_equivalence.py`` pins runs on the default contention-free
dancehall, where every off-chip latency hook (``_l4_rt``,
``_l4_control_rt``, ``_l4_partial``, ``_chip_rt``) is a pure table lookup.
This suite pins the same kind of exact fingerprint for runs on a
four-chip torus with the epoch queueing model enabled, where each hook call
also accumulates link and directory-bank occupancy and folds a surcharge
into the latency — so the order and number of hook calls inside the
protocol engines are part of the result.

The cases cover MESI, COUP and RMO with values tracked on:

* a histogram large enough for U-line evictions (partial reductions);
* interleaved reads and updates, and cross-op updates (full reductions);
* hot multi-counter remote updates (RMO's home-bank ALU queueing).

Every case is simulated from the object trace and from the columnar trace
under each ``REPRO_SIM_KERNEL`` mode; all must match the pinned
``SimulationResult.to_jsonable()`` exactly.

Regenerate the golden file (only after an *intentional* modelling change)::

    PYTHONPATH=src python tests/sim/test_golden_contention.py --regen
"""

from __future__ import annotations

import json
import os

import pytest

from repro.sim.columnar import ColumnarTrace
from repro.sim.config import TopologyConfig, small_test_config
from repro.sim.simulator import simulate
from repro.workloads.base import UpdateStyle
from repro.workloads.histogram import HistogramWorkload
from repro.workloads.synthetic import (
    InterleavedReadUpdateWorkload,
    MixedOpWorkload,
    MultiCounterWorkload,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden_contention.json"
)

#: Four chips of four cores each (and four L4 chips), so torus hop
#: distances differ between chip pairs.
N_CORES = 16

PROTOCOLS = ("MESI", "COUP", "RMO")

KERNEL_MODES = ("scalar", "batch", "auto")

#: Narrow links and short epochs, so surcharges are large and change often.
TOPOLOGY = TopologyConfig(
    name="torus", contention=True, link_bandwidth_bytes_per_cycle=2.0, epoch_cycles=512
)


def _workload_cases():
    return {
        "hist-evicting": HistogramWorkload(
            n_bins=1024, n_items=3000, update_style=UpdateStyle.COMMUTATIVE
        ),
        "interleaved": InterleavedReadUpdateWorkload(rounds=20, updates_per_read=4),
        "mixed-ops": MixedOpWorkload(updates_per_core=80, switch_every=7),
        "multi-counter-remote": MultiCounterWorkload(
            n_counters=16,
            updates_per_core=100,
            hot_fraction=0.5,
            update_style=UpdateStyle.REMOTE,
        ),
    }


def _config():
    return small_test_config(N_CORES).with_topology(TOPOLOGY)


def _fingerprint(result) -> dict:
    # Round-trip through JSON so floats compare exactly as stored.
    return json.loads(json.dumps(result.to_jsonable(), sort_keys=True))


def compute_fingerprints() -> dict:
    fingerprints = {}
    for case_name, workload in _workload_cases().items():
        trace = workload.generate(N_CORES)
        for protocol in PROTOCOLS:
            result = simulate(trace, _config(), protocol, track_values=True)
            fingerprints[f"{case_name}/{protocol}"] = _fingerprint(result)
    return fingerprints


def _load_golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


CASE_KEYS = [f"{case}/{protocol}" for case in _workload_cases() for protocol in PROTOCOLS]


@pytest.fixture(scope="module")
def golden() -> dict:
    return _load_golden()


@pytest.fixture(scope="module")
def traces() -> dict:
    return {
        name: (workload.generate(N_CORES), ColumnarTrace.from_workload(workload.generate(N_CORES)))
        for name, workload in _workload_cases().items()
    }


@pytest.mark.parametrize("case_key", CASE_KEYS)
def test_object_trace_matches_golden(case_key, golden, traces):
    case_name, protocol = case_key.split("/")
    result = simulate(traces[case_name][0], _config(), protocol, track_values=True)
    assert result.link_stats is not None
    assert _fingerprint(result) == golden[case_key]


@pytest.mark.parametrize("mode", KERNEL_MODES)
@pytest.mark.parametrize("case_key", CASE_KEYS)
def test_columnar_trace_matches_golden(case_key, mode, golden, traces, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_KERNEL", mode)
    case_name, protocol = case_key.split("/")
    result = simulate(traces[case_name][1], _config(), protocol, track_values=True)
    assert _fingerprint(result) == golden[case_key]


def test_golden_exercises_contended_paths(golden):
    """The pins must cover surcharges, both reduction kinds and RMO queueing."""
    # COUP buffers the hot counters' updates privately: no off-chip traffic.
    contended = [fp for key, fp in golden.items() if key != "multi-counter-remote/COUP"]
    assert all(fp["link_stats"]["surcharge_cycles"] > 0 for fp in contended)
    assert golden["hist-evicting/COUP"]["partial_reductions"] > 0
    assert golden["interleaved/COUP"]["reductions"] > 0
    assert golden["mixed-ops/COUP"]["reductions"] > 0
    rmo = golden["multi-counter-remote/RMO"]
    latency = [stats["latency"]["serialization"] for stats in rmo["core_stats"]]
    assert sum(latency) > 0


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--regen", action="store_true", help="rewrite the golden file")
    args = parser.parse_args()
    if not args.regen:
        parser.error("pass --regen to rewrite the golden file")
    fingerprints = compute_fingerprints()
    with open(GOLDEN_PATH, "w") as handle:
        # One case per line: compact, and a changed case is a one-line diff.
        cases = (
            f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
            for key, value in sorted(fingerprints.items())
        )
        handle.write("{\n" + ",\n".join(cases) + "\n}\n")
    print(f"wrote {GOLDEN_PATH} ({len(fingerprints)} cases)")


if __name__ == "__main__":
    main()
