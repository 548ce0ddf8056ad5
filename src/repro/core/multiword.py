"""Multi-word commutative updates: set insertion (the paper's future-work extension).

Sec. 7 notes that, with limited programmability in the cache controller, COUP
could support multi-word commutative updates such as insertions into unordered
sets.  This module provides that extension for the reproduction:

* :class:`SetInsertOp` — a commutative, associative, idempotent operation over
  small per-line hash sets (a line is treated as ``k`` buckets of 64-bit
  element slots); the identity element is the empty set.
* :class:`SetDeltaBuffer` — the per-cache buffered state while a line is held
  in update-only mode for set insertion.
* :func:`reduce_set_deltas` — the reduction that folds several caches' buffered
  insertions into the authoritative copy.

Because insertion is idempotent and commutative, buffering insertions locally
and merging them on a read preserves the set's final contents regardless of
the interleaving — the same argument as for single-word updates.  Overflowing
a line's capacity falls back to software (the protocol performs the insert as
an ordinary read-modify-write), which the model exposes through
:attr:`SetDeltaBuffer.overflowed`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Sequence, Set


@dataclass(frozen=True)
class SetInsertOp:
    """Commutative insertion into a bounded per-line set.

    ``capacity`` is the number of element slots a cache line provides (eight
    64-bit slots for a 64-byte line by default).
    """

    capacity: int = 8

    @property
    def identity(self) -> FrozenSet[int]:
        """The identity element: the empty set."""
        return frozenset()

    def apply(self, current: FrozenSet[int], elements: Iterable[int]) -> FrozenSet[int]:
        """Insert ``elements`` into ``current`` (commutative and idempotent)."""
        return frozenset(current) | frozenset(elements)

    def fits(self, value: FrozenSet[int]) -> bool:
        """Whether a set still fits in the line's slots."""
        return len(value) <= self.capacity


class SetDeltaBuffer:
    """Buffered insertions held by one private cache in update-only mode."""

    def __init__(self, op: SetInsertOp) -> None:
        self.op = op
        self._inserted: Set[int] = set()
        #: Set when the buffered insertions no longer fit in the line; the
        #: protocol must then fall back to a read-modify-write.
        self.overflowed = False

    def insert(self, element: int) -> bool:
        """Buffer one insertion; returns False (and flags overflow) if full."""
        if len(self._inserted) >= self.op.capacity and element not in self._inserted:
            self.overflowed = True
            return False
        self._inserted.add(element)
        return True

    @property
    def inserted(self) -> FrozenSet[int]:
        return frozenset(self._inserted)

    def is_empty(self) -> bool:
        return not self._inserted

    def clear(self) -> None:
        self._inserted.clear()
        self.overflowed = False


def reduce_set_deltas(
    op: SetInsertOp, base: FrozenSet[int], buffers: Sequence[SetDeltaBuffer]
) -> FrozenSet[int]:
    """Fold buffered insertions from several caches into the base set.

    The result is independent of the order of ``buffers`` (union is commutative
    and associative), which tests assert explicitly.
    """
    result = frozenset(base)
    for buffer in buffers:
        result = op.apply(result, buffer.inserted)
    return result


@dataclass
class SetReductionOutcome:
    """Outcome of reducing a set line, including the software-fallback signal."""

    value: FrozenSet[int]
    overflowed: bool
    n_partials: int


def reduce_with_overflow(
    op: SetInsertOp, base: FrozenSet[int], buffers: Sequence[SetDeltaBuffer]
) -> SetReductionOutcome:
    """Reduce buffered insertions, reporting whether the line overflowed.

    An overflow means the merged set no longer fits in the line; a full
    implementation would spill to a software-managed structure at that point,
    exactly as the paper suggests handling operations beyond the cache
    controller's capability.
    """
    value = reduce_set_deltas(op, base, buffers)
    overflowed = not op.fits(value) or any(buffer.overflowed for buffer in buffers)
    return SetReductionOutcome(value=value, overflowed=overflowed, n_partials=len(buffers))
