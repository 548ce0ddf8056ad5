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

import numpy as np

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


# ---------------------------------------------------------------------------
# Flat tag mirror for the batched simulation kernel
# ---------------------------------------------------------------------------

#: Tag value marking an empty way in a :class:`TagArray`.
TAG_EMPTY = np.uint64(0xFFFF_FFFF_FFFF_FFFF)

#: Per-way coherence-state codes stored in :attr:`TagArray.state`.  These
#: deliberately mirror the MESI/MEUSI stable states without importing the
#: enum: 0 marks an untracked or absent line.
STATE_ABSENT = 0
STATE_SHARED = 1
STATE_EXCLUSIVE = 2
STATE_MODIFIED = 3
STATE_UPDATE = 4

#: Sentinel for "no classifiable update op" in :attr:`TagArray.uop`.
UOP_NONE = 255


class TagArray:
    """Flat NumPy mirror of one :class:`SetAssociativeCache`'s residency.

    The batched simulation kernel (:mod:`repro.sim.kernel`) classifies whole
    chunks of a columnar trace at once: "is this access a private L1 hit in a
    stable state?" must be answerable with array arithmetic, which the
    object cache's dict-of-dicts cannot do.  A ``TagArray`` holds, per
    (set, way):

    * ``tags`` — the resident line address (:data:`TAG_EMPTY` if the way is
      empty),
    * ``state`` — the owning core's stable state for the line, as one of the
      ``STATE_*`` codes above,
    * ``uop`` — for ``STATE_UPDATE`` lines, the index of the directory
      entry's commutative op when the line can buffer same-type updates
      locally (:data:`UOP_NONE` otherwise).

    The mirror tracks *membership and classification inputs only*.  It holds
    no recency: LRU order lives solely in the key order of the object
    cache's sets, which the kernel refreshes itself after every batched
    hit-run, and hit statistics live in the object cache too.  The mirror is
    kept coherent at run boundaries only: after each boundary access the
    kernel refills the executing core's affected sets from the object cache
    and repairs other cores' touched lines in place (:meth:`update_line`);
    hit-runs change no membership and no classification input.  Way order
    within a set is arbitrary; only membership matters.
    """

    __slots__ = ("num_sets", "ways", "tags", "state", "uop")

    def __init__(self, config: CacheConfig) -> None:
        self.num_sets = config.num_sets
        self.ways = config.ways
        self.tags = np.full((self.num_sets, self.ways), TAG_EMPTY, dtype=np.uint64)
        self.state = np.zeros((self.num_sets, self.ways), dtype=np.uint8)
        self.uop = np.full((self.num_sets, self.ways), UOP_NONE, dtype=np.uint8)

    def clear(self) -> None:
        """Empty every way (start of a rebuild)."""
        self.tags.fill(TAG_EMPTY)
        self.state.fill(STATE_ABSENT)
        self.uop.fill(UOP_NONE)

    def fill_way(self, set_index: int, way: int, line_addr: int, state: int, uop: int) -> None:
        """Install one line during a rebuild (no victim handling)."""
        self.tags[set_index, way] = line_addr
        self.state[set_index, way] = state
        self.uop[set_index, way] = uop

    def update_line(self, line_addr: int, state: int, uop: int) -> None:
        """Repair one line after a cross-core coherence action.

        ``state == STATE_ABSENT`` removes the line (invalidation); any other
        state updates the resident way in place (downgrade).  A line the
        mirror does not hold is a no-op — cross-core actions never *add*
        lines to another core's private cache, so absence stays absence.
        """
        set_index = line_addr % self.num_sets
        row = self.tags[set_index]
        slots = np.flatnonzero(row == np.uint64(line_addr))
        if not slots.size:
            return
        way = int(slots[0])
        if state == STATE_ABSENT:
            row[way] = TAG_EMPTY
            self.state[set_index, way] = STATE_ABSENT
            self.uop[set_index, way] = UOP_NONE
        else:
            self.state[set_index, way] = state
            self.uop[set_index, way] = uop

    def resident(self, line_addr: int) -> bool:
        """Membership probe (tests and debugging; the kernel uses arrays)."""
        row = self.tags[line_addr % self.num_sets]
        return bool((row == np.uint64(line_addr)).any())
