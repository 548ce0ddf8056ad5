"""Set-associative cache arrays with LRU replacement.

These arrays track only *presence*; data values live in the protocol engines
(which need them for functional checking of commutative reductions).  Both
private caches (L1/L2) and shared banked caches (L3/L4) are built from
:class:`SetAssociativeCache`.

The arrays sit on the simulator's per-access critical path, so they are
written for speed: sets are materialised lazily (constructing a 32 MB L3
allocates nothing until lines arrive), geometry is precomputed once, and each
set is a plain dict kept in recency order — least recently used first — so
neither a hit nor an eviction stamps, allocates or scans anything.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.sim.config import CacheConfig


class SetAssociativeCache:
    """A set-associative cache array with true-LRU replacement.

    Each materialised set maps its resident line addresses to ``True`` in
    recency order: a hit moves the line to the end of its set (pop and
    re-insert), so the least-recently-used line is always the set's first
    key.  Insertion into a full set evicts that line and returns its
    address so callers can perform writebacks or partial reductions.
    """

    __slots__ = (
        "config",
        "name",
        "_sets",
        "_num_sets",
        "_ways",
        "hits",
        "misses",
        "evictions",
    )

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self._num_sets = config.num_sets
        self._ways = config.ways
        #: Lazily materialised sets: set index -> {line_addr: True}, LRU first.
        self._sets: Dict[int, Dict[int, bool]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __contains__(self, line_addr: int) -> bool:
        cache_set = self._sets.get(line_addr % self._num_sets)
        return cache_set is not None and line_addr in cache_set

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets.values())

    def lookup(self, line_addr: int) -> bool:
        """Return whether the line is resident; refresh LRU and count the probe."""
        cache_set = self._sets.get(line_addr % self._num_sets)
        if cache_set is not None and cache_set.pop(line_addr, None) is not None:
            cache_set[line_addr] = True
            self.hits += 1
            return True
        self.misses += 1
        return False

    def peek(self, line_addr: int) -> bool:
        """Return whether the line is resident, without touching LRU or statistics."""
        cache_set = self._sets.get(line_addr % self._num_sets)
        return cache_set is not None and line_addr in cache_set

    def insert(self, line_addr: int) -> Optional[int]:
        """Insert a line as most recently used; return the evicted line, if any.

        Inserting a line that is already resident only refreshes its LRU
        position.
        """
        index = line_addr % self._num_sets
        cache_set = self._sets.get(index)
        if cache_set is None:
            self._sets[index] = {line_addr: True}
            return None
        if cache_set.pop(line_addr, None) is not None:
            cache_set[line_addr] = True
            return None
        victim: Optional[int] = None
        if len(cache_set) >= self._ways:
            victim = next(iter(cache_set))
            del cache_set[victim]
            self.evictions += 1
        cache_set[line_addr] = True
        return victim

    def invalidate(self, line_addr: int) -> bool:
        """Remove a line (coherence invalidation); return whether it was resident."""
        cache_set = self._sets.get(line_addr % self._num_sets)
        return cache_set is not None and cache_set.pop(line_addr, None) is not None

    def resident_lines(self) -> Iterator[int]:
        """Iterate over all resident line addresses (order unspecified)."""
        # repro-lint: disable=D102(documented order-unspecified iterator; consumers aggregate order-insensitively)
        for cache_set in self._sets.values():
            yield from cache_set

    def occupancy(self) -> float:
        """Fraction of the cache's capacity currently occupied."""
        return len(self) / max(1, self.config.num_lines)

    def reset_statistics(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
