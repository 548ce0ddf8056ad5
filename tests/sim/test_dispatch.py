"""Kernel dispatch is a function of the trace alone, never of the host clock.

In ``REPRO_SIM_KERNEL=auto`` a run opens with a scalar cold-start stint,
hands off to at most one batched-kernel stint, and a kernel that bails hands
the rest of the run to the scalar loop.  Every decision must read only the
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

DISPATCH_PREFIXES = ("kernel.stint.", "kernel.bail.", "sim.stint.")
DISPATCH_COUNTERS = ("kernel.slow_events", "kernel.hits_batched")


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
    monkeypatch.delenv("REPRO_SIM_KERNEL", raising=False)
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

    # Every auto run opens with exactly one cold-start stint, and is a
    # straight line: at most one kernel stint, at most one scalar stint
    # after it.
    assert frozen["sim.stint.cold_start"] == 1
    assert frozen.get("kernel.stint.enter", 0) <= 1
    assert frozen.get("sim.stint.scalar", 0) <= 1
    if key in HIT_RUN_POINTS:
        # The kernel's own regime: the cold start retires the opening cold
        # misses, then one kernel stint runs to the end.
        assert frozen["kernel.stint.enter"] == 1
        assert frozen.get("sim.stint.scalar", 0) == 0
        assert frozen.get("kernel.stint.bail", 0) == 0
        assert frozen["kernel.stint.complete"] == 1
    if protocol == "RMO":
        # Every update is a remote slow event: the kernel either never gets
        # the run or hands it off.
        _assert_never_entered_or_bailed(frozen)


def _assert_never_entered_or_bailed(counters):
    if counters.get("kernel.stint.enter", 0):
        assert counters["kernel.stint.bail"] >= 1
        assert counters["sim.stint.scalar"] >= 1


@pytest.mark.parametrize(
    "protocol, style",
    [("MESI", UpdateStyle.ATOMIC), ("COUP", UpdateStyle.COMMUTATIVE)],
)
def test_one_core_histogram_never_lingers_in_the_kernel(protocol, style, counters_mode):
    """A one-core point with few hits per slow event is judged and bails.

    The trace outlasts the cold-start prefix, so the kernel does get the
    run; with one core every update to a 16K-bin histogram misses, and the
    kernel must hand the run to the scalar loop rather than pay its
    per-event reclassification to the end.
    """
    trace = HistogramWorkload(
        n_bins=16384, n_items=8000, update_style=style, seed=3
    ).generate_columnar(1)
    registry = obs.get_registry()
    baseline = registry.snapshot()
    simulate(trace, table1_config(1), protocol, track_values=True)
    counters = registry.delta(baseline)["counters"]
    assert counters["sim.stint.cold_start"] == 1
    _assert_never_entered_or_bailed(counters)
    assert counters.get("kernel.slow_events", 0) <= 64


def _counted_run(trace, protocol, n_cores, engine_cls=None):
    """Simulate once; return the result and every counter the run bumped."""
    from repro.sim.simulator import MulticoreSimulator, make_protocol

    config = table1_config(n_cores)
    if engine_cls is None:
        engine = make_protocol(protocol, config, track_values=True)
    else:
        engine = engine_cls(config, track_values=True)
    registry = obs.get_registry()
    baseline = registry.snapshot()
    result = MulticoreSimulator(config, engine, track_values=True).run(trace)
    return result.to_jsonable(), registry.delta(baseline)["counters"]


def _scalar_reference(trace, protocol, n_cores, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setenv("REPRO_SIM_KERNEL", "scalar")
        return simulate(
            trace, table1_config(n_cores), protocol, track_values=True
        ).to_jsonable()


def _dispatch_counters(counters):
    return {
        name: count
        for name, count in counters.items()
        if name.startswith(DISPATCH_PREFIXES)
    }


def test_trace_inside_the_cold_start_prefix_never_reaches_the_kernel(
    counters_mode, monkeypatch
):
    """A trace shorter than the prefix, with no long hit streak, finishes in
    the cold-start stint itself."""
    trace = SharedCounterWorkload(updates_per_core=100, seed=3).generate_columnar(4)
    result, counters = _counted_run(trace, "COUP", 4)
    assert _dispatch_counters(counters) == {"sim.stint.cold_start": 1}
    assert result == _scalar_reference(trace, "COUP", 4, monkeypatch)


@pytest.mark.parametrize("prefix", [1, 5, 64])
def test_cold_start_hands_off_where_a_core_exhausts_its_prefix(prefix, monkeypatch):
    """The stint returns a handoff at the first core to run out of decoded
    accesses; the scalar loop resumed from it finishes the identical run."""
    from repro.sim.simulator import MulticoreSimulator, make_protocol

    n_cores = 4
    trace = HistogramWorkload(
        n_bins=64, n_items=2000, update_style=UpdateStyle.ATOMIC, seed=3
    ).generate_columnar(n_cores)
    config = table1_config(n_cores)
    simulator = MulticoreSimulator(
        config, make_protocol("MESI", config, track_values=True), track_values=True
    )
    handoff = simulator._run_columnar_scalar(trace, prefix=prefix)
    assert isinstance(handoff, tuple), "the stint ran past its prefix"
    cursor_state, _, heap, barrier_waiters = handoff
    positions = [next_index for _, next_index, _ in cursor_state]
    assert max(positions) == prefix
    assert all(index <= prefix for index in positions)
    exhausted = [core for core, index in enumerate(positions) if index == prefix]
    assert {core for _, core in heap} | set(barrier_waiters) == set(range(n_cores))
    assert set(exhausted) <= {core for _, core in heap}

    resumed = simulator._run_columnar_scalar(trace, resume=handoff)
    assert resumed.to_jsonable() == _scalar_reference(trace, "MESI", n_cores, monkeypatch)


def test_forced_batch_mode_skips_the_cold_start(traces, counters_mode, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_KERNEL", "batch")
    trace = traces["shared-counter/COUP"]
    _, counters = _counted_run(trace, "COUP", N_CORES)
    dispatch = _dispatch_counters(counters)
    assert "sim.stint.cold_start" not in dispatch
    assert dispatch["kernel.stint.enter"] == 1


@pytest.mark.parametrize("mode", ["scalar", "unsupported-engine"])
def test_scalar_runs_open_no_stint(mode, traces, counters_mode, monkeypatch):
    """``REPRO_SIM_KERNEL=scalar``, or an engine that does not opt into the
    kernel, runs the plain scalar loop: no cold start, no kernel stint."""
    from repro.core.mesi import MesiProtocol

    class ScalarOnlyMesi(MesiProtocol):
        SUPPORTS_BATCH_KERNEL = False

    trace = traces["read-only/MESI"]
    if mode == "scalar":
        monkeypatch.setenv("REPRO_SIM_KERNEL", "scalar")
        result, counters = _counted_run(trace, "MESI", N_CORES)
    else:
        result, counters = _counted_run(trace, "MESI", N_CORES, ScalarOnlyMesi)
    assert _dispatch_counters(counters) == {}
    assert result == _scalar_reference(trace, "MESI", N_CORES, monkeypatch)
