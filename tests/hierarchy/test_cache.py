"""Unit tests for the set-associative cache arrays."""

from __future__ import annotations

from typing import Dict, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hierarchy.cache import SetAssociativeCache
from repro.sim.config import CacheConfig


def make_cache(size=1024, ways=2, line=64) -> SetAssociativeCache:
    return SetAssociativeCache(CacheConfig(size_bytes=size, ways=ways, latency=1, line_bytes=line))


class TickLruCache:
    """Reference model: true LRU by per-line use ticks and a linear victim scan.

    Every hit or insert stamps the line with a fresh tick from a per-cache
    clock; a full set evicts the line with the smallest tick.  This is the
    textbook formulation the recency-ordered sets must reproduce exactly.
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.sets: Dict[int, Dict[int, int]] = {}
        self.tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _stamp(self, cache_set: Dict[int, int], line_addr: int) -> None:
        self.tick += 1
        cache_set[line_addr] = self.tick

    def lookup(self, line_addr: int) -> bool:
        cache_set = self.sets.get(line_addr % self.num_sets, {})
        if line_addr in cache_set:
            self.hits += 1
            self._stamp(cache_set, line_addr)
            return True
        self.misses += 1
        return False

    def peek(self, line_addr: int) -> bool:
        return line_addr in self.sets.get(line_addr % self.num_sets, {})

    def insert(self, line_addr: int) -> Optional[int]:
        cache_set = self.sets.setdefault(line_addr % self.num_sets, {})
        victim = None
        if line_addr not in cache_set and len(cache_set) >= self.ways:
            victim = min(cache_set, key=cache_set.__getitem__)
            del cache_set[victim]
            self.evictions += 1
        self._stamp(cache_set, line_addr)
        return victim

    def invalidate(self, line_addr: int) -> bool:
        return self.sets.get(line_addr % self.num_sets, {}).pop(line_addr, None) is not None

    def residency(self) -> set:
        return {line for cache_set in self.sets.values() for line in cache_set}


#: One cache operation: (method name, line address).  Addresses are drawn
#: from a small pool so sets fill, overflow and re-hit often.
_OPS = st.tuples(
    st.sampled_from(["insert", "insert", "lookup", "peek", "invalidate"]),
    st.integers(min_value=0, max_value=23),
)


class TestAgainstTickReference:
    @given(
        ways=st.integers(min_value=2, max_value=4),
        num_sets=st.sampled_from([1, 2, 4]),
        ops=st.lists(_OPS, max_size=120),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_tick_lru_after_every_operation(self, ways, num_sets, ops):
        cache = make_cache(size=64 * ways * num_sets, ways=ways)
        assert cache.config.num_sets == num_sets
        reference = TickLruCache(num_sets, ways)
        for method, line_addr in ops:
            got = getattr(cache, method)(line_addr)
            want = getattr(reference, method)(line_addr)
            assert got == want, (method, line_addr)
            assert type(got) is type(want)
            assert set(cache.resident_lines()) == reference.residency()
            assert len(cache) == len(reference.residency())
            assert (cache.hits, cache.misses, cache.evictions) == (
                reference.hits,
                reference.misses,
                reference.evictions,
            )


class TestGeometry:
    def test_num_sets(self):
        cache = make_cache(size=1024, ways=2, line=64)
        assert cache.config.num_lines == 16
        assert cache.config.num_sets == 8

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=0, ways=2, latency=1)
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1024, ways=0, latency=1)
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, ways=3, latency=1, line_bytes=48)


class TestLookupInsert:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert cache.lookup(0x10) is False
        cache.insert(0x10)
        assert cache.lookup(0x10) is True
        assert cache.hits == 1
        assert cache.misses == 1

    def test_peek_does_not_touch_stats(self):
        cache = make_cache()
        cache.insert(0x10)
        assert cache.peek(0x10) is True
        assert cache.peek(0x999) is False
        assert cache.hits == 0
        assert cache.misses == 0

    def test_reinsert_refreshes_without_eviction(self):
        cache = make_cache(size=256, ways=2, line=64)  # 2 sets
        cache.insert(0)
        cache.insert(2)
        assert cache.insert(0) is None  # resident: refresh, no eviction
        assert cache.evictions == 0
        assert cache.insert(4) == 2  # 0 was refreshed, so 2 is now LRU

    def test_lru_eviction_within_set(self):
        cache = make_cache(size=256, ways=2, line=64)  # 4 lines, 2 sets
        # Addresses 0, 2, 4 map to set 0 (line_addr % num_sets with 2 sets).
        cache.insert(0)
        cache.insert(2)
        cache.lookup(0)  # make 0 most recently used
        victim = cache.insert(4)
        assert victim == 2
        assert 0 in cache
        assert 4 in cache

    def test_invalidate(self):
        cache = make_cache()
        cache.insert(0x20)
        assert cache.invalidate(0x20) is True
        assert 0x20 not in cache
        assert cache.invalidate(0x20) is False

    def test_occupancy_and_len(self):
        cache = make_cache(size=256, ways=2, line=64)
        assert len(cache) == 0
        cache.insert(1)
        cache.insert(2)
        assert len(cache) == 2
        assert cache.occupancy() == pytest.approx(0.5)

    def test_hit_rate(self):
        cache = make_cache()
        cache.insert(1)
        cache.lookup(1)
        cache.lookup(2)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_reset_statistics(self):
        cache = make_cache()
        cache.lookup(1)
        cache.reset_statistics()
        assert cache.misses == 0
