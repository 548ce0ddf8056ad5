"""``--seed`` reaches the simulator-throughput workloads' inputs."""

from __future__ import annotations

import pytest

from repro.experiments import settings
from repro.sim.config import table1_config
from repro.sim.simulator import simulate

from bench.workloads import GRID_CORES, hitrun_specs, paper_grid_specs, result_digest


@pytest.fixture
def tiny_scale():
    previous = settings.scale()
    settings.set_scale(0.005)
    yield
    settings.set_scale(previous)


def _point(make_specs, seed, key):
    return next(spec for point_key, protocol, spec in make_specs(seed) if point_key == key)


@pytest.mark.parametrize(
    "make_specs, key, protocol",
    [(paper_grid_specs, "hist/COUP", "COUP"), (hitrun_specs, "multi-counter/COUP", "COUP")],
)
def test_seed_changes_trace_key_and_digest(tiny_scale, make_specs, key, protocol):
    def digest(seed):
        trace = _point(make_specs, seed, key).materialize_columnar(GRID_CORES)
        return result_digest(simulate(trace, table1_config(GRID_CORES), protocol, track_values=False))

    assert _point(make_specs, 42, key).key(GRID_CORES) != _point(make_specs, 7, key).key(GRID_CORES)
    assert _point(make_specs, 7, key).key(GRID_CORES) == _point(make_specs, 7, key).key(GRID_CORES)
    assert digest(42) != digest(7)
    assert digest(7) == digest(7)
