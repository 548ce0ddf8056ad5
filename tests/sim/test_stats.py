"""Tests for statistics structures (AMAT breakdowns, speedups, summaries)."""

from __future__ import annotations

import pytest

import json

from repro.sim.stats import (
    AMAT_COMPONENTS,
    CoreStats,
    LatencyBreakdown,
    LinkStats,
    SimulationResult,
    speedup_curve,
)


def make_result(run_cycles: float, protocol: str = "MESI", latency=None) -> SimulationResult:
    stats = CoreStats(core_id=0, accesses=10, finish_time=run_cycles)
    if latency is not None:
        stats.latency = latency
    return SimulationResult(
        protocol=protocol,
        workload="w",
        n_cores=1,
        core_stats=[stats],
        run_cycles=run_cycles,
        offchip_bytes=100,
        onchip_bytes=200,
    )


class TestLatencyBreakdown:
    def test_total_sums_components(self):
        breakdown = LatencyBreakdown(l1=1, l2=2, l3=3, offchip_network=4, l4=5, l4_invalidations=6, main_memory=7, serialization=8)
        assert breakdown.total == 36

    def test_add_and_scale(self):
        a = LatencyBreakdown(l2=2.0, l3=4.0)
        b = LatencyBreakdown(l2=1.0, main_memory=3.0)
        a.add(b)
        assert a.l2 == 3.0
        scaled = a.scaled(0.5)
        assert scaled.l2 == 1.5
        assert a.l2 == 3.0  # original untouched

    def test_as_dict_folds_serialization_into_invalidations(self):
        breakdown = LatencyBreakdown(l4_invalidations=5.0, serialization=2.5)
        as_dict = breakdown.as_dict()
        assert as_dict["l4_invalidations"] == 7.5
        assert set(as_dict) == set(AMAT_COMPONENTS)


class TestSimulationResult:
    def test_speedup_over(self):
        fast = make_result(100.0, "COUP")
        slow = make_result(250.0, "MESI")
        assert fast.speedup_over(slow) == pytest.approx(2.5)
        assert slow.speedup_over(fast) == pytest.approx(0.4)

    def test_amat_and_breakdown(self):
        latency = LatencyBreakdown(l2=20.0, main_memory=30.0)
        result = make_result(100.0, latency=latency)
        assert result.amat == pytest.approx(5.0)
        breakdown = result.amat_breakdown()
        assert breakdown["l2"] == pytest.approx(2.0)
        assert breakdown["main_memory"] == pytest.approx(3.0)

    def test_empty_result_amat_zero(self):
        result = SimulationResult(
            protocol="MESI",
            workload="w",
            n_cores=1,
            core_stats=[CoreStats(core_id=0)],
            run_cycles=0.0,
            offchip_bytes=0,
            onchip_bytes=0,
        )
        assert result.amat == 0.0
        assert all(v == 0.0 for v in result.amat_breakdown().values())

    def test_speedup_curve(self):
        baseline = make_result(1000.0)
        runs = [make_result(1000.0), make_result(200.0, "COUP")]
        rows = speedup_curve(baseline, runs)
        assert rows[0]["speedup"] == pytest.approx(1.0)
        assert rows[1]["speedup"] == pytest.approx(5.0)

    def test_zero_duration_speedup_rejected(self):
        broken = make_result(0.0)
        with pytest.raises(ValueError):
            broken.speedup_over(make_result(10.0))


def make_link_stats() -> LinkStats:
    return LinkStats(
        topology="ring",
        epoch_cycles=1000.0,
        link_bandwidth_bytes_per_cycle=16.0,
        links={
            "s0->s1": {"bytes": 4096.0, "utilization": 0.256},
            "s1->s0": {"bytes": 1024.0, "utilization": 0.064},
        },
        bank_requests={"s0.b0": 17, "s1.b3": 4},
        max_link_utilization=0.256,
        mean_link_utilization=0.16,
        surcharge_cycles=42.5,
        offchip_transfers=80,
    )


class TestLinkStats:
    def test_to_jsonable_key_order_matches_legacy_dict(self):
        # The serialized form predates the dataclass; its key order is a
        # contract (canonical JSON re-serialization depends on it only via
        # sort_keys, but diffs of raw records depend on it directly).
        jsonable = make_link_stats().to_jsonable()
        assert list(jsonable) == [
            "topology",
            "epoch_cycles",
            "link_bandwidth_bytes_per_cycle",
            "links",
            "bank_requests",
            "max_link_utilization",
            "mean_link_utilization",
            "surcharge_cycles",
            "offchip_transfers",
        ]

    def test_roundtrip_is_bit_identical(self):
        stats = make_link_stats()
        wire = json.dumps(stats.to_jsonable(), sort_keys=True)
        rebuilt = LinkStats.from_jsonable(json.loads(wire))
        assert rebuilt == stats
        assert json.dumps(rebuilt.to_jsonable(), sort_keys=True) == wire

    def test_projections_copy_mutable_fields(self):
        stats = make_link_stats()
        jsonable = stats.to_jsonable()
        jsonable["links"]["s0->s1"]["bytes"] = 0.0
        jsonable["bank_requests"]["s0.b0"] = 0
        assert stats.links["s0->s1"]["bytes"] == 4096.0
        assert stats.bank_requests["s0.b0"] == 17


class TestResultRoundTrip:
    def make_full_result(self) -> SimulationResult:
        """A result with every optional field populated."""
        result = make_result(512.0, "COUP", latency=LatencyBreakdown(l2=3.5, l4=1.25))
        result.reductions = 9
        result.partial_reductions = 2
        result.invalidations = 31
        result.downgrades = 7
        result.final_values = {0x40: 123, 0x08: -5}
        result.params = {"workload": "shared-counter", "updates_per_core": 200}
        result.bytes_by_type = {"GETS": 640, "PUTX": 128}
        result.link_stats = make_link_stats()
        return result

    def test_all_optional_fields_roundtrip(self):
        result = self.make_full_result()
        wire = json.dumps(result.to_jsonable(), sort_keys=True)
        rebuilt = SimulationResult.from_jsonable(json.loads(wire))
        assert rebuilt == result
        assert isinstance(rebuilt.link_stats, LinkStats)
        assert json.dumps(rebuilt.to_jsonable(), sort_keys=True) == wire

    def test_final_values_serialized_sorted_by_address(self):
        jsonable = self.make_full_result().to_jsonable()
        assert jsonable["final_values"] == [[0x08, -5], [0x40, 123]]

    def test_absent_optionals_stay_none(self):
        result = make_result(100.0)
        rebuilt = SimulationResult.from_jsonable(
            json.loads(json.dumps(result.to_jsonable(), sort_keys=True))
        )
        assert rebuilt.link_stats is None
        assert rebuilt.final_values is None
        assert rebuilt.bytes_by_type is None
        assert rebuilt == result

    def test_summary_reads_link_stats_fields(self):
        summary = self.make_full_result().summary()
        assert summary["max_link_utilization"] == 0.256
        assert summary["mean_link_utilization"] == 0.16
        assert summary["contention_surcharge_cycles"] == 42.5
