"""Golden-output equivalence test for the simulator hot path.

The timing simulator's hot path is heavily optimized (private-hit fast path,
scalar latency accumulation, precomputed config tables).  These optimizations
must never change simulation results: this test pins exact
:class:`SimulationResult` fingerprints — run cycles, traffic bytes, reduction
counts, per-core statistics, and the functional memory image — for a matrix of
small mixed workloads across all three protocol engines (MESI, COUP/MEUSI,
RMO).  The golden data in ``golden_equivalence.json`` was captured from the
unoptimized reference engines; any divergence is a correctness regression, not
a tolerance issue, so comparisons are bit-exact.

Regenerate the golden file (only after an *intentional* modelling change)::

    PYTHONPATH=src python tests/sim/test_golden_equivalence.py --regen
"""

from __future__ import annotations

import json
import os

import pytest

from repro.sim.columnar import ColumnarTrace
from repro.sim.config import small_test_config
from repro.sim.simulator import simulate
from repro.software.privatization import PrivatizationLevel
from repro.workloads.base import UpdateStyle
from repro.workloads.histogram import HistogramWorkload
from repro.workloads.synthetic import (
    FalseSharingWorkload,
    InterleavedReadUpdateWorkload,
    MixedOpWorkload,
    MultiCounterWorkload,
    ReadOnlyWorkload,
    ScalarReductionWorkload,
    SharedCounterWorkload,
)

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_equivalence.json")

#: Two chips of four cores each, so cross-chip invalidations, off-chip
#: traffic, and hierarchical reductions are all exercised.
N_CORES = 8

PROTOCOLS = ("MESI", "COUP", "RMO")


def _workload_cases():
    """Deterministic small workloads covering every access type and path."""
    return {
        "shared-counter-commutative": SharedCounterWorkload(
            updates_per_core=200, update_style=UpdateStyle.COMMUTATIVE
        ),
        "shared-counter-atomic": SharedCounterWorkload(
            updates_per_core=200, update_style=UpdateStyle.ATOMIC
        ),
        "shared-counter-remote": SharedCounterWorkload(
            updates_per_core=200, update_style=UpdateStyle.REMOTE
        ),
        "multi-counter-hot": MultiCounterWorkload(
            n_counters=32, updates_per_core=200, hot_fraction=0.3
        ),
        "false-sharing": FalseSharingWorkload(updates_per_core=150),
        "false-sharing-stores": FalseSharingWorkload(
            updates_per_core=150, update_style=UpdateStyle.PRIVATE_STORE
        ),
        "interleaved": InterleavedReadUpdateWorkload(rounds=30, updates_per_read=4),
        "mixed-ops": MixedOpWorkload(updates_per_core=120, switch_every=7),
        "read-only": ReadOnlyWorkload(reads_per_core=300),
        "scalar-reduction": ScalarReductionWorkload(items_per_core=400),
    }


PRIVATIZED_PROTOCOLS = ("MESI", "COUP")


def _privatized_cases():
    """Software-privatized histograms (Figs. 2 and 12).

    They cover the reduction phase's barrier, core-level plain stores and
    socket-level atomics.  Each case is ``(n_cores, level, cores_per_socket,
    workload)``; 16 cores with 8 bins leaves half the cores without a share
    of the reduction.
    """
    return {
        "hist-priv-core-4c": (
            4, PrivatizationLevel.CORE, 16, HistogramWorkload(n_bins=64, n_items=400)
        ),
        "hist-priv-core-16c": (
            16, PrivatizationLevel.CORE, 16, HistogramWorkload(n_bins=8, n_items=300)
        ),
        "hist-priv-socket-4c": (
            4, PrivatizationLevel.SOCKET, 2, HistogramWorkload(n_bins=64, n_items=400)
        ),
        "hist-priv-socket-16c": (
            16, PrivatizationLevel.SOCKET, 4, HistogramWorkload(n_bins=32, n_items=300)
        ),
    }


def _fingerprint(result) -> dict:
    """Exact, JSON-serialisable fingerprint of one simulation run."""
    return {
        "protocol": result.protocol,
        "workload": result.workload,
        "n_cores": result.n_cores,
        "run_cycles": result.run_cycles,
        "offchip_bytes": result.offchip_bytes,
        "onchip_bytes": result.onchip_bytes,
        "reductions": result.reductions,
        "partial_reductions": result.partial_reductions,
        "invalidations": result.invalidations,
        "downgrades": result.downgrades,
        "amat_breakdown": result.amat_breakdown(),
        "core_stats": [
            {
                "finish_time": stats.finish_time,
                "memory_cycles": stats.memory_cycles,
                "compute_cycles": stats.compute_cycles,
                "accesses": stats.accesses,
                "loads": stats.loads,
                "stores": stats.stores,
                "atomics": stats.atomics,
                "commutative_updates": stats.commutative_updates,
                "remote_updates": stats.remote_updates,
                "l1_hits": stats.l1_hits,
                "latency": stats.latency.as_dict(include_l1=True),
            }
            for stats in result.core_stats
        ],
        "final_values": {str(addr): value for addr, value in sorted(result.final_values.items())},
    }


def compute_fingerprints() -> dict:
    fingerprints = {}
    for case_name, workload in _workload_cases().items():
        trace = workload.generate(N_CORES)
        for protocol in PROTOCOLS:
            config = small_test_config(N_CORES)
            result = simulate(trace, config, protocol, track_values=True)
            fingerprints[f"{case_name}/{protocol}"] = _fingerprint(result)
    for case_name, (n_cores, level, per_socket, workload) in _privatized_cases().items():
        trace = workload.generate_privatized(
            n_cores, level=level, cores_per_socket=per_socket
        )
        for protocol in PRIVATIZED_PROTOCOLS:
            config = small_test_config(n_cores)
            result = simulate(trace, config, protocol, track_values=True)
            fingerprints[f"{case_name}/{protocol}"] = _fingerprint(result)
    return fingerprints


def _load_golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def current_fingerprints() -> dict:
    return compute_fingerprints()


@pytest.mark.parametrize(
    "case_key",
    [f"{case}/{protocol}" for case in _workload_cases() for protocol in PROTOCOLS],
)
def test_simulation_results_match_golden(case_key, current_fingerprints):
    golden = _load_golden()
    assert case_key in golden, f"golden data missing {case_key}; regenerate with --regen"
    # Round-trip through JSON so float representation matches the stored file
    # exactly (json preserves doubles bit-for-bit via repr round-tripping).
    current = json.loads(json.dumps(current_fingerprints[case_key]))
    assert current == golden[case_key]


@pytest.mark.parametrize(
    "case_key",
    [f"{case}/{protocol}" for case in _privatized_cases() for protocol in PRIVATIZED_PROTOCOLS],
)
def test_privatized_results_match_golden(case_key, current_fingerprints):
    golden = _load_golden()
    assert case_key in golden, f"golden data missing {case_key}; regenerate with --regen"
    current = json.loads(json.dumps(current_fingerprints[case_key]))
    assert current == golden[case_key]


def test_golden_covers_all_protocols():
    golden = _load_golden()
    for protocol in PROTOCOLS:
        assert any(key.endswith(f"/{protocol}") for key in golden)


# ---------------------------------------------------------------------------
# Columnar-path equivalence
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def columnar_fingerprints() -> dict:
    """Fingerprints of the golden cases simulated via the columnar path.

    The golden traces are shorter than ``auto``'s cold-start prefix, so at
    the default prefix most of them never leave the scalar loop.  Here the
    prefix is cut to 7 accesses per core: every case hands off to the
    batched kernel early, and the kernel's results are pinned too.
    """
    import repro.sim.simulator as sim_module

    fingerprints = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim_module, "COLD_START_ACCESSES", 7)
        for case_name, workload in _workload_cases().items():
            trace = ColumnarTrace.from_workload(workload.generate(N_CORES))
            for protocol in PROTOCOLS:
                config = small_test_config(N_CORES)
                result = simulate(trace, config, protocol, track_values=True)
                fingerprints[f"{case_name}/{protocol}"] = _fingerprint(result)
    return fingerprints


@pytest.mark.parametrize(
    "case_key",
    [f"{case}/{protocol}" for case in _workload_cases() for protocol in PROTOCOLS],
)
def test_columnar_simulation_matches_golden(case_key, columnar_fingerprints):
    """The columnar fast path must reproduce the pinned golden results."""
    golden = _load_golden()
    current = json.loads(json.dumps(columnar_fingerprints[case_key]))
    assert current == golden[case_key]


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--regen", action="store_true", help="rewrite the golden file")
    args = parser.parse_args()
    if not args.regen:
        parser.error("pass --regen to rewrite the golden file")
    fingerprints = compute_fingerprints()
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(fingerprints, handle, indent=1, sort_keys=True)
    print(f"wrote {GOLDEN_PATH} ({len(fingerprints)} cases)")


if __name__ == "__main__":
    main()
