"""Kernel dispatch is a function of the trace alone, never of the host clock.

In ``REPRO_SIM_KERNEL=auto`` the batched kernel bails to the scalar loop and
the scalar loop hands hot stretches back.  Both decisions must read only the
simulation's own work counters, so the same trace takes the same path on a
fast host, a slow host, or a host whose clock misbehaves.  Each workload runs
twice under ``REPRO_OBS=counters``: once with ``time.perf_counter`` frozen,
once with a clock that jumps ten seconds per call.  A timed heuristic sees
"free" work under the first clock and ruinous work under the second, so any
clock read in dispatch splits the counters below.
"""

from __future__ import annotations

import itertools
import time

import pytest

import repro.obs as obs
from repro.sim.config import table1_config
from repro.sim.simulator import simulate
from repro.workloads import UpdateStyle
from repro.workloads.histogram import HistogramWorkload
from repro.workloads.synthetic import (
    MultiCounterWorkload,
    ReadOnlyWorkload,
    SharedCounterWorkload,
)

N_CORES = 16

#: (protocol, workload factory); the first three live in the kernel's
#: hit-run regime, the last two are slow-path bound.
POINTS = {
    "shared-counter/COUP": (
        "COUP",
        lambda: SharedCounterWorkload(updates_per_core=4000, seed=3),
    ),
    "multi-counter/COUP": (
        "COUP",
        lambda: MultiCounterWorkload(
            n_counters=64, updates_per_core=4000, hot_fraction=0.3, seed=3
        ),
    ),
    "read-only/MESI": ("MESI", lambda: ReadOnlyWorkload(reads_per_core=4000, seed=3)),
    "hist-contended/MESI": (
        "MESI",
        lambda: HistogramWorkload(
            n_bins=32, n_items=8000, update_style=UpdateStyle.ATOMIC, seed=3
        ),
    ),
    "hist/RMO": (
        "RMO",
        lambda: HistogramWorkload(
            n_bins=256, n_items=8000, update_style=UpdateStyle.COMMUTATIVE, seed=3
        ),
    ),
}

HIT_RUN_POINTS = ("shared-counter/COUP", "multi-counter/COUP", "read-only/MESI")

DISPATCH_PREFIXES = ("kernel.stint.", "kernel.bail.")
DISPATCH_COUNTERS = ("sim.stint.scalar", "kernel.slow_events", "kernel.hits_batched")


def _frozen_clock():
    return lambda: 1000.0


def _jumping_clock():
    ticks = itertools.count()
    return lambda: 10.0 * next(ticks)


@pytest.fixture(scope="module")
def traces():
    return {
        key: factory().generate_columnar(N_CORES)
        for key, (_, factory) in POINTS.items()
    }


@pytest.fixture
def counters_mode(monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "counters")
    for knob in ("REPRO_SIM_KERNEL", "REPRO_SLOW_BATCH"):
        monkeypatch.delenv(knob, raising=False)
    obs.reconfigure()
    yield
    monkeypatch.delenv("REPRO_OBS")
    obs.reconfigure()


def _dispatch(trace, protocol, clock, monkeypatch):
    """Simulate under ``clock``; return the result and its dispatch counters."""
    registry = obs.get_registry()
    baseline = registry.snapshot()
    with monkeypatch.context() as patch:
        patch.setattr(time, "perf_counter", clock)
        result = simulate(trace, table1_config(N_CORES), protocol, track_values=True)
    counters = registry.delta(baseline)["counters"]
    picked = {
        name: count
        for name, count in counters.items()
        if name.startswith(DISPATCH_PREFIXES) or name in DISPATCH_COUNTERS
    }
    return result.to_jsonable(), picked


@pytest.mark.parametrize("key", sorted(POINTS))
def test_dispatch_ignores_the_host_clock(key, traces, counters_mode, monkeypatch):
    protocol, _ = POINTS[key]
    frozen_result, frozen = _dispatch(
        traces[key], protocol, _frozen_clock(), monkeypatch
    )
    jumping_result, jumping = _dispatch(
        traces[key], protocol, _jumping_clock(), monkeypatch
    )
    assert frozen == jumping
    assert frozen_result == jumping_result

    if key in HIT_RUN_POINTS:
        # The kernel's own regime: one stint, start to finish.
        assert frozen.get("sim.stint.scalar", 0) == 0
        assert frozen.get("kernel.stint.bail", 0) == 0
        assert frozen["kernel.stint.complete"] == 1
    if protocol == "RMO":
        # Every update is a remote slow event: the kernel must hand off.
        assert frozen["kernel.stint.bail"] >= 1
        assert frozen["sim.stint.scalar"] >= 1
