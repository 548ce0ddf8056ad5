"""Tests for the histogram workload and its privatized variants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.access import AccessType
from repro.sim.columnar import CODE_ACCESS_TYPE, ColumnarTrace
from repro.sim.config import small_test_config
from repro.sim.simulator import simulate
from repro.software.privatization import PrivatizationLevel
from repro.workloads import HistogramWorkload, UpdateStyle


class TestSharedHistogram:
    def test_trace_shape(self):
        workload = HistogramWorkload(n_bins=16, n_items=1000)
        trace = workload.generate(4)
        assert trace.n_cores == 4
        # One input load plus one update per item.
        assert trace.total_accesses == 2 * 1000

    def test_work_partitioned_across_cores(self):
        workload = HistogramWorkload(n_bins=16, n_items=1000)
        trace = workload.generate(4)
        sizes = [len(t) for t in trace.per_core]
        assert sum(sizes) == 2000
        assert max(sizes) - min(sizes) <= 2

    def test_update_style_controls_access_type(self):
        commutative = HistogramWorkload(n_bins=8, n_items=100).generate(2)
        atomic = HistogramWorkload(
            n_bins=8, n_items=100, update_style=UpdateStyle.ATOMIC
        ).generate(2)
        comm_types = {a.access_type for t in commutative.per_core for a in t}
        atomic_types = {a.access_type for t in atomic.per_core for a in t}
        assert AccessType.COMMUTATIVE_UPDATE in comm_types
        assert AccessType.ATOMIC_RMW not in comm_types
        assert AccessType.ATOMIC_RMW in atomic_types

    def test_deterministic_given_seed(self):
        a = HistogramWorkload(n_bins=8, n_items=200, seed=7).generate(2)
        b = HistogramWorkload(n_bins=8, n_items=200, seed=7).generate(2)
        assert [x.address for t in a.per_core for x in t] == [
            x.address for t in b.per_core for x in t
        ]

    def test_different_seed_changes_inputs(self):
        a = HistogramWorkload(n_bins=64, n_items=200, seed=1).generate(2)
        b = HistogramWorkload(n_bins=64, n_items=200, seed=2).generate(2)
        assert [x.address for t in a.per_core for x in t] != [
            x.address for t in b.per_core for x in t
        ]

    def test_reference_result_matches_simulation(self):
        workload = HistogramWorkload(n_bins=32, n_items=800)
        reference = workload.reference_result()
        result = simulate(workload.generate(4), small_test_config(4), "COUP")
        for address, expected in reference.items():
            assert result.final_values.get(address, 0) == expected
        assert sum(reference.values()) == 800

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            HistogramWorkload(n_bins=0, n_items=10)
        with pytest.raises(ValueError):
            HistogramWorkload(n_bins=10, n_items=0)

    def test_skewed_inputs_stay_in_range(self):
        workload = HistogramWorkload(n_bins=16, n_items=500, skew=1.2)
        reference = workload.reference_result()
        assert sum(reference.values()) == 500


def _access_types(trace):
    """Every access type present in a columnar trace."""
    return {
        CODE_ACCESS_TYPE[code]
        for column in trace.columns
        for code in np.unique(column["type_code"]).tolist()
    }


class TestPrivatizedHistogram:
    def test_core_level_has_reduction_phase(self):
        workload = HistogramWorkload(n_bins=64, n_items=400)
        trace = workload.generate_privatized(4, level=PrivatizationLevel.CORE)
        assert isinstance(trace, ColumnarTrace)
        assert trace.phase_boundaries is not None
        # Reduction phase: for each owned bin, read every replica and write once.
        reduction_accesses = sum(
            len(column) - boundary
            for column, boundary in zip(trace.columns, trace.phase_boundaries[0])
        )
        assert reduction_accesses == 64 * 4 + 64
        # The phase column follows the boundaries.
        for column, boundary in zip(trace.columns, trace.phase_boundaries[0]):
            assert not column["phase"][:boundary].any()
            assert (column["phase"][boundary:] == 1).all()

    def test_socket_level_uses_fewer_replicas(self):
        workload = HistogramWorkload(n_bins=64, n_items=400)
        core_level = workload.generate_privatized(8, level=PrivatizationLevel.CORE)
        socket_level = HistogramWorkload(n_bins=64, n_items=400).generate_privatized(
            8, level=PrivatizationLevel.SOCKET, cores_per_socket=4
        )
        assert core_level.params["n_replicas"] == 8
        assert socket_level.params["n_replicas"] == 2
        assert socket_level.params["footprint_bytes"] < core_level.params["footprint_bytes"]

    def test_privatized_updates_are_not_atomics_at_core_level(self):
        workload = HistogramWorkload(n_bins=16, n_items=100)
        trace = workload.generate_privatized(2, level=PrivatizationLevel.CORE)
        types = _access_types(trace)
        assert AccessType.ATOMIC_RMW not in types
        assert AccessType.COMMUTATIVE_UPDATE not in types
        assert types == {AccessType.LOAD, AccessType.STORE}

    def test_socket_level_uses_atomics_within_socket(self):
        workload = HistogramWorkload(n_bins=16, n_items=100)
        trace = workload.generate_privatized(
            4, level=PrivatizationLevel.SOCKET, cores_per_socket=2
        )
        types = _access_types(trace)
        assert AccessType.ATOMIC_RMW in types

    def test_runs_under_simulation(self):
        workload = HistogramWorkload(n_bins=32, n_items=300)
        trace = workload.generate_privatized(4, level=PrivatizationLevel.CORE)
        result = simulate(trace, small_test_config(4), "MESI", track_values=False)
        assert result.total_accesses == trace.total_accesses
