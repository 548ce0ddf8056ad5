"""The telemetry contract: REPRO_OBS never perturbs simulation results.

Runs the same columnar traces through the batched kernel with telemetry off
and with telemetry at ``full``, and asserts the serialized results are
**byte-identical** — across all three protocol engines and two workload
shapes (one commutative-heavy, one mixed).  This is the grid the golden
fingerprints rely on: instrumentation may observe the kernel, never steer it.
The grid forces ``REPRO_SIM_KERNEL=batch``: its traces are shorter than the
``auto`` cold-start prefix, which would retire them without the kernel.
The counters-mode check runs under ``auto``.
"""

from __future__ import annotations

import json

import pytest

import repro.obs as obs
from obs_helpers import reset_obs_state  # noqa: F401 (autouse fixture)
from repro.sim.config import small_test_config
from repro.sim.simulator import simulate
from repro.workloads.base import UpdateStyle
from repro.workloads.synthetic import MixedOpWorkload, SharedCounterWorkload

N_CORES = 8

PROTOCOLS = ("MESI", "COUP", "RMO")

WORKLOADS = {
    "shared-counter": lambda: SharedCounterWorkload(
        updates_per_core=200, update_style=UpdateStyle.COMMUTATIVE
    ),
    "mixed-ops": lambda: MixedOpWorkload(updates_per_core=120, switch_every=7),
}


def _canonical(result) -> str:
    return json.dumps(result.to_jsonable(), sort_keys=True)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_full_telemetry_is_bit_identical_to_off(
    protocol, workload_name, tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_SIM_KERNEL", "batch")
    factory = WORKLOADS[workload_name]
    trace = factory().generate_columnar(N_CORES)
    config = small_test_config(N_CORES)

    obs.reconfigure("off")
    baseline = _canonical(simulate(trace, config, protocol, track_values=True))

    registry = obs.reconfigure("full", str(tmp_path))
    instrumented = _canonical(simulate(trace, config, protocol, track_values=True))

    assert instrumented == baseline

    # The run must actually have been observed — a silent no-op registry
    # would make the identity above vacuous.
    snap = registry.snapshot()
    assert snap["counters"].get("kernel.stint.enter", 0) > 0
    assert snap["counters"].get("protocol.invalidations", 0) >= 0
    assert any(name == "eval_mask" for name in snap["phases"])


def test_counters_mode_is_bit_identical_too():
    trace = WORKLOADS["mixed-ops"]().generate_columnar(N_CORES)
    config = small_test_config(N_CORES)

    obs.reconfigure("off")
    baseline = _canonical(simulate(trace, config, "COUP", track_values=True))

    registry = obs.reconfigure("counters")
    counted = _canonical(simulate(trace, config, "COUP", track_values=True))

    assert counted == baseline
    snap = registry.snapshot()
    assert snap["counters"]  # counters flowed
    assert snap["counters"]["sim.stint.cold_start"] == 1
    assert snap["phases"] == {}  # but no timing in counters mode
