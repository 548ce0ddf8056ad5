"""The slow path allocates nothing per access.

``CoherenceProtocol.resolve_slow`` charges an access's latency components to
the issuing core's :class:`~repro.sim.stats.LatencyBreakdown` in place and
returns the total as a float; only the public one-access
``CoherenceProtocol.access`` API builds an :class:`AccessOutcome`.  These
tests run small histogram traces — private hits, ownership transfers,
update-only grants and downgrades, partial reductions of evicted U lines,
remote updates — under every engine and every ``REPRO_SIM_KERNEL`` mode with
``AccessOutcome`` made to raise on construction, and check that each run
completes with a result equal to the unpatched run's and builds one
``LatencyBreakdown`` per core, no more.
"""

from __future__ import annotations

import pytest

from repro.core.protocol import AccessOutcome
from repro.sim.columnar import ColumnarTrace
from repro.sim.config import small_test_config
from repro.sim.simulator import simulate
from repro.sim.stats import LatencyBreakdown
from repro.workloads.base import UpdateStyle
from repro.workloads.histogram import HistogramWorkload

N_CORES = 8

PROTOCOLS = ("MESI", "COUP", "RMO")

KERNEL_MODES = ("scalar", "batch", "auto")


def _trace(protocol: str, columnar: bool):
    style = UpdateStyle.ATOMIC if protocol == "MESI" else UpdateStyle.COMMUTATIVE
    # Enough bins to overflow the tiny L2s, so U lines get evicted.
    workload = HistogramWorkload(n_bins=1024, n_items=2400, update_style=style)
    trace = workload.generate(N_CORES)
    return ColumnarTrace.from_workload(trace) if columnar else trace


def _run(trace, protocol: str):
    return simulate(trace, small_test_config(N_CORES), protocol, track_values=True).to_jsonable()


def _forbid_outcomes(monkeypatch) -> list:
    """Make AccessOutcome raise when built; count LatencyBreakdown builds."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("AccessOutcome built on a simulation path")

    built = []
    original = LatencyBreakdown.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(AccessOutcome, "__init__", refuse)
    monkeypatch.setattr(LatencyBreakdown, "__init__", counting)
    return built


@pytest.mark.parametrize("mode", KERNEL_MODES)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_columnar_runs_allocate_no_outcomes(protocol, mode, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_KERNEL", mode)
    trace = _trace(protocol, columnar=True)
    expected = _run(trace, protocol)
    built = _forbid_outcomes(monkeypatch)
    assert _run(trace, protocol) == expected
    assert len(built) == N_CORES


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_object_runs_allocate_no_outcomes(protocol, monkeypatch):
    trace = _trace(protocol, columnar=False)
    expected = _run(trace, protocol)
    built = _forbid_outcomes(monkeypatch)
    assert _run(trace, protocol) == expected
    assert len(built) == N_CORES


def test_the_public_access_api_still_builds_outcomes(monkeypatch):
    """The guard is real: ``access()`` does construct an AccessOutcome."""
    from repro.sim.access import MemoryAccess
    from repro.sim.simulator import make_protocol

    engine = make_protocol("MESI", small_test_config(N_CORES))
    assert engine.access(0, MemoryAccess.load(0x100), now=0.0).latency.total > 0
    _forbid_outcomes(monkeypatch)
    with pytest.raises(AssertionError, match="AccessOutcome built"):
        engine.access(1, MemoryAccess.load(0x100), now=10.0)
