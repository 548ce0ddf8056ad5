"""Refcache software baseline: delayed reference counting with per-thread deltas.

Refcache (RadixVM) batches reference-count updates in a per-thread software
cache (a small hash table of counter deltas) and flushes the deltas to the
global counters at the end of each epoch; an object is freed only after its
global count has remained zero for a full epoch.  This trades memory footprint
and deallocation latency for much cheaper updates.

The model appends the access stream of the per-thread hash table (probe,
update) during the epoch and of the flush (read delta, atomic add to the
global counter) at epoch end to a trace's packed columns, matching the
structure the paper compares COUP against in Fig. 13c.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from repro.core.commutative import CommutativeOp
from repro.sim.access import AccessType
from repro.sim.columnar import VK_INT, VK_NONE, ColumnBuilder, code_for

if TYPE_CHECKING:  # workloads import the baselines, not the reverse
    from repro.workloads.base import AddressMap

#: Packed codes of Refcache's accesses: slot loads and stores, and the
#: flush's 64-bit atomic add to a global counter.
_SLOT_LOAD_CODE = code_for(AccessType.LOAD, None, 8, VK_NONE)
_SLOT_STORE_CODE = code_for(AccessType.STORE, None, 8, VK_NONE)
_COUNTER_ADD_CODE = code_for(AccessType.ATOMIC_RMW, CommutativeOp.ADD_I64, 8, VK_INT)


@dataclass
class RefcacheConfig:
    """Sizing of the per-thread delta cache."""

    n_ways: int = 1
    n_slots: int = 4096
    slot_bytes: int = 16  # counter pointer + delta


class RefcacheThreadCache:
    """Per-thread software cache of reference-count deltas.

    Each operation appends its accesses to a
    :class:`~repro.sim.columnar.ColumnBuilder`; the thread's slot region is
    allocated when it is first touched.
    """

    def __init__(
        self,
        addresses: AddressMap,
        thread_id: int,
        config: RefcacheConfig = RefcacheConfig(),
    ) -> None:
        self.addresses = addresses
        self.thread_id = thread_id
        self.config = config
        #: counter id -> accumulated delta (functional bookkeeping).
        self.deltas: Dict[int, int] = {}

    def _slot_address(self, counter_id: int) -> int:
        slot = hash(counter_id) % self.config.n_slots
        return self.addresses.element(
            f"refcache_t{self.thread_id}", slot, self.config.slot_bytes
        )

    def update(self, builder: ColumnBuilder, counter_id: int, delta: int) -> None:
        """Append one increment/decrement during an epoch.

        A hash-table probe (load of the slot), the delta update (store), plus
        the hashing and tag-check instructions as think time.
        """
        self.deltas[counter_id] = self.deltas.get(counter_id, 0) + delta
        slot = self._slot_address(counter_id)
        builder.append(_SLOT_LOAD_CODE, slot, 0, 6)
        builder.append(_SLOT_STORE_CODE, slot, 0, 2)

    def flush(self, builder: ColumnBuilder, global_counter_address) -> None:
        """Append the end-of-epoch flush.

        For every dirty slot, in counter order, the thread reads the slot
        and applies the delta to the global counter with an atomic add;
        slots are then cleared.  ``global_counter_address`` maps a counter
        id to its address.
        """
        for counter_id, delta in sorted(self.deltas.items()):
            builder.append(_SLOT_LOAD_CODE, self._slot_address(counter_id), 0, 4)
            builder.append(_COUNTER_ADD_CODE, global_counter_address(counter_id), delta, 2)
        self.deltas.clear()

    @property
    def footprint_bytes(self) -> int:
        return self.config.n_slots * self.config.slot_bytes
