"""Directory state for MESI / MEUSI protocols.

Conventional in-cache directories track the sharer set of each line plus
whether a single sharer holds it exclusively.  COUP adds a third mode,
*update-only*, in which the sharer bit-vector tracks updaters instead of
readers, and a small per-line field records the non-exclusive operation type
(read-only or one of the commutative update types) — Sec. 3.1.1 / Sec. 3.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set

from repro.core.commutative import CommutativeOp
from repro.core.states import LineMode


@dataclass(slots=True)
class DirectoryEntry:
    """Directory state for a single cache line.

    Attributes
    ----------
    line_addr:
        Line address this entry tracks.
    mode:
        Current line mode (uncached / exclusive / read-only / update-only).
    sharers:
        Ids of the caches holding the line.  In exclusive mode this has one
        element; in read-only mode these are readers; in update-only mode
        these are updaters.
    op:
        The commutative-update type when in update-only mode (COUP's extra
        per-line type field); ``None`` otherwise.
    busy_until:
        Simulator timestamp until which the line's home is busy serialising a
        previous ownership transfer or reduction.  Used by the timing model
        to capture serialization at the directory.
    """

    line_addr: int
    mode: LineMode = LineMode.UNCACHED
    sharers: Set[int] = field(default_factory=set)
    op: Optional[CommutativeOp] = None
    busy_until: float = 0.0

    def is_consistent(self) -> bool:
        """Internal invariants any reachable directory entry must satisfy."""
        if self.mode is LineMode.UNCACHED:
            return not self.sharers and self.op is None
        if self.mode is LineMode.EXCLUSIVE:
            return len(self.sharers) == 1 and self.op is None
        if self.mode is LineMode.READ_ONLY:
            return len(self.sharers) >= 1 and self.op is None
        if self.mode is LineMode.UPDATE_ONLY:
            return len(self.sharers) >= 1 and self.op is not None
        return False

    def exclusive_owner(self) -> Optional[int]:
        """The single owner when in exclusive mode, else ``None``."""
        if self.mode is LineMode.EXCLUSIVE:
            return next(iter(self.sharers))
        return None


class Directory:
    """Sparse full-map directory: one :class:`DirectoryEntry` per tracked line.

    Entries are created on demand and discarded when a line returns to the
    uncached mode, which keeps memory proportional to the actively shared
    footprint rather than the address space.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: Dict[int, DirectoryEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, line_addr: int) -> DirectoryEntry:
        """Return (creating if needed) the entry for ``line_addr``."""
        entry = self._entries.get(line_addr)
        if entry is None:
            entry = DirectoryEntry(line_addr=line_addr)
            self._entries[line_addr] = entry
        return entry

    def peek(self, line_addr: int) -> Optional[DirectoryEntry]:
        """Return the entry if it exists, without creating it."""
        return self._entries.get(line_addr)

    def drop_if_uncached(self, line_addr: int) -> None:
        """Free the entry when the line is no longer cached anywhere."""
        entry = self._entries.get(line_addr)
        if entry is not None and entry.mode is LineMode.UNCACHED and not entry.sharers:
            del self._entries[line_addr]

    # -- mode transitions used by the protocol engines -----------------------

    def grant_exclusive(self, line_addr: int, cache_id: int) -> DirectoryEntry:
        """Record that ``cache_id`` now holds the line exclusively."""
        entry = self.entry(line_addr)
        entry.mode = LineMode.EXCLUSIVE
        entry.sharers = {cache_id}
        entry.op = None
        return entry

    def grant_shared(self, line_addr: int, cache_id: int) -> DirectoryEntry:
        """Add ``cache_id`` as a reader; the line becomes/stays read-only."""
        entry = self.entry(line_addr)
        if entry.mode not in (LineMode.READ_ONLY, LineMode.UNCACHED):
            raise ValueError(
                f"cannot grant shared in mode {entry.mode} for line {line_addr:#x}"
            )
        entry.mode = LineMode.READ_ONLY
        entry.sharers.add(cache_id)
        entry.op = None
        return entry

    def grant_update_only(
        self, line_addr: int, cache_id: int, op: CommutativeOp
    ) -> DirectoryEntry:
        """Add ``cache_id`` as an updater of type ``op`` (COUP's U mode)."""
        entry = self.entry(line_addr)
        if entry.mode is LineMode.UPDATE_ONLY and entry.op is not op:
            raise ValueError(
                "directory must serialise updates of different types "
                f"(line {line_addr:#x}: {entry.op} vs {op})"
            )
        if entry.mode in (LineMode.EXCLUSIVE, LineMode.READ_ONLY) and entry.sharers - {cache_id}:
            raise ValueError(
                f"cannot grant update-only while other caches hold mode {entry.mode}"
            )
        entry.mode = LineMode.UPDATE_ONLY
        entry.sharers.add(cache_id)
        entry.op = op
        return entry

    def remove_sharer(self, line_addr: int, cache_id: int) -> DirectoryEntry:
        """Drop ``cache_id`` from the sharer set (eviction or invalidation)."""
        entry = self.entry(line_addr)
        entry.sharers.discard(cache_id)
        if not entry.sharers:
            entry.mode = LineMode.UNCACHED
            entry.op = None
        elif entry.mode is LineMode.EXCLUSIVE:
            # The only sharer of an exclusive line is its owner, so removing a
            # *different* cache while an owner remains means some engine asked
            # to evict a cache that never held the line — a protocol bug that
            # previously slipped through as a silent no-op.
            raise ValueError(
                f"remove_sharer({line_addr:#x}, {cache_id}) in exclusive mode: "
                f"owner {next(iter(entry.sharers))} still holds the line"
            )
        return entry

    def clear_all_sharers(self, line_addr: int) -> Set[int]:
        """Invalidate every sharer and return the set that was invalidated."""
        entry = self.entry(line_addr)
        invalidated = set(entry.sharers)
        entry.sharers.clear()
        entry.mode = LineMode.UNCACHED
        entry.op = None
        return invalidated

    def check_invariants(self) -> None:
        """Raise if any entry violates its internal invariants."""
        # repro-lint: disable=D102(pure invariant assertion pass; raises or does nothing, no result flows out)
        for entry in self._entries.values():
            if not entry.is_consistent():
                raise AssertionError(f"inconsistent directory entry: {entry}")

    def entries(self) -> Iterable[DirectoryEntry]:
        return self._entries.values()

    def storage_bits_per_line(self, n_caches: int, n_ops: int = 8) -> int:
        """Directory storage per line in bits.

        A conventional full-map MESI directory needs a sharer bit-vector plus
        one bit distinguishing exclusive from read-only when there is a single
        sharer.  COUP reuses the sharer vector for updaters and adds a type
        field able to encode read-only plus ``n_ops`` update types (4 bits for
        the paper's 8 ops) — matching the hardware-overhead discussion in
        Sec. 3.1.1 and Sec. 5.1.
        """
        type_field_bits = max(1, (n_ops + 1 - 1).bit_length())
        return n_caches + 1 + type_field_bits
