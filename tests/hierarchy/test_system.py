"""Unit tests for the cache hierarchy assembly and the memory model."""

from __future__ import annotations

import pytest

from repro.core.mesi import MesiProtocol
from repro.hierarchy.memory import MainMemoryModel
from repro.hierarchy.system import CacheHierarchy
from repro.sim.config import small_test_config, table1_config


class TestCacheHierarchy:
    def test_machine_assembly_matches_config(self):
        config = table1_config(32)
        hierarchy = CacheHierarchy(config)
        assert len(hierarchy.l1) == 32
        assert len(hierarchy.l2) == 32
        assert len(hierarchy.l3) == config.n_chips == 2
        assert len(hierarchy.l4) == config.n_l4_chips == 2

    def test_private_fill_then_probe_hits_l1(self):
        protocol = MesiProtocol(small_test_config(2))
        assert protocol.hierarchy.private_fill_victim(0, 0x100) is None
        assert protocol._private_level(0, 0x100) == 1
        assert protocol.hierarchy.l1[0].hits == 1

    def test_probe_miss(self):
        protocol = MesiProtocol(small_test_config(2))
        assert protocol._private_level(0, 0x100) == 0
        hierarchy = protocol.hierarchy
        assert (hierarchy.l1[0].misses, hierarchy.l2[0].misses) == (1, 1)

    def test_l2_hit_refills_l1(self):
        protocol = MesiProtocol(small_test_config(2))
        hierarchy = protocol.hierarchy
        hierarchy.private_fill_victim(0, 0x100)
        hierarchy.l1[0].invalidate(0x100)
        assert protocol._private_level(0, 0x100) == 2
        assert hierarchy.l1[0].peek(0x100)
        assert protocol._private_level(0, 0x100) == 1

    def test_capacity_evictions_reported_from_l2(self):
        config = small_test_config(1)
        hierarchy = CacheHierarchy(config)
        victims = []
        # Fill well past the tiny L2 capacity (4 KiB / 64 B = 64 lines).
        for i in range(200):
            victim = hierarchy.private_fill_victim(0, i)
            if victim is not None:
                victims.append(victim)
        assert victims, "filling past capacity must evict lines"
        assert len(victims) == hierarchy.l2[0].evictions
        # Evicted lines are gone from both private levels (inclusion).
        for line in set(victims):
            assert not hierarchy.l1[0].peek(line)
            assert not hierarchy.l2[0].peek(line)

    def test_private_fill_victim_is_l2_lru_line(self):
        config = small_test_config(1)
        hierarchy = CacheHierarchy(config)
        num_sets, ways = config.l2.num_sets, config.l2.ways
        same_set = [way * num_sets for way in range(ways + 1)]
        for line in same_set[:ways]:
            assert hierarchy.private_fill_victim(0, line) is None
        hierarchy.l2[0].lookup(same_set[0])  # oldest fill becomes MRU
        assert hierarchy.private_fill_victim(0, same_set[ways]) == same_set[1]

    def test_private_invalidate_clears_both_levels(self):
        hierarchy = CacheHierarchy(small_test_config(2))
        hierarchy.private_fill_victim(1, 0x40)
        assert hierarchy.private_present(1, 0x40)
        hierarchy.private_invalidate(1, 0x40)
        assert not hierarchy.private_present(1, 0x40)

    def test_cache_summary_reports_rates(self):
        protocol = MesiProtocol(small_test_config(2))
        protocol.hierarchy.private_fill_victim(0, 0x1)
        protocol._private_level(0, 0x1)
        summary = protocol.hierarchy.cache_summary()
        assert summary["l1_hit_rate"] == 1.0

    def test_l4_home_chip_is_interleaved(self):
        config = table1_config(128)
        homes = {config.l4_home_chip(line) for line in range(64)}
        assert homes == set(range(config.n_l4_chips))


class TestMainMemory:
    def test_latency_includes_configured_minimum(self):
        config = table1_config(16)
        memory = MainMemoryModel(config)
        timing = memory.access(l4_chip=0, now=0.0, line_bytes=64)
        assert timing.latency >= config.memory.latency

    def test_bandwidth_queueing(self):
        config = table1_config(16)
        memory = MainMemoryModel(config)
        # Saturate all channels at the same instant; later accesses queue.
        latencies = [memory.access(0, 0.0, 64).latency for _ in range(32)]
        assert latencies[-1] > latencies[0]
        assert memory.accesses == 32

    def test_reset(self):
        memory = MainMemoryModel(table1_config(16))
        memory.access(0, 0.0, 64)
        memory.reset()
        assert memory.accesses == 0
        assert memory.bytes_transferred == 0
