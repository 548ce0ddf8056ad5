"""Refcache software baseline: delayed reference counting with per-thread deltas.

Refcache (RadixVM) batches reference-count updates in a per-thread software
cache (a small hash table of counter deltas) and flushes the deltas to the
global counters at the end of each epoch; an object is freed only after its
global count has remained zero for a full epoch.  This trades memory footprint
and deallocation latency for much cheaper updates.

The model generates the access stream of the per-thread hash table (probe,
update) during the epoch and of the flush (read delta, atomic add to the
global counter) at epoch end, matching the structure the paper compares COUP
against in Fig. 13c.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.commutative import CommutativeOp
from repro.sim.access import MemoryAccess, Trace
from repro.workloads.base import AddressMap


@dataclass
class RefcacheConfig:
    """Sizing of the per-thread delta cache."""

    n_ways: int = 1
    n_slots: int = 4096
    slot_bytes: int = 16  # counter pointer + delta


class RefcacheThreadCache:
    """Per-thread software cache of reference-count deltas."""

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

    def update(self, counter_id: int, delta: int) -> Trace:
        """Accesses performed by one increment/decrement during an epoch.

        A hash-table probe (load of the slot), the delta update (store), plus
        the hashing and tag-check instructions as think time.
        """
        self.deltas[counter_id] = self.deltas.get(counter_id, 0) + delta
        slot = self._slot_address(counter_id)
        return [
            MemoryAccess.load(slot, think=6),
            MemoryAccess.store(slot, None, think=2),
        ]

    def flush(self, global_counter_address) -> Trace:
        """Accesses performed by the end-of-epoch flush.

        For every dirty slot, the thread reads the slot and applies the delta
        to the global counter with an atomic add; slots are then cleared.
        ``global_counter_address`` maps a counter id to its address.
        """
        trace: Trace = []
        for counter_id, delta in sorted(self.deltas.items()):
            trace.append(MemoryAccess.load(self._slot_address(counter_id), think=4))
            trace.append(
                MemoryAccess.atomic(
                    global_counter_address(counter_id), CommutativeOp.ADD_I64, delta, think=2
                )
            )
        self.deltas.clear()
        return trace

    @property
    def footprint_bytes(self) -> int:
        return self.config.n_slots * self.config.slot_bytes
