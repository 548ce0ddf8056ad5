"""Baseline MESI directory protocol engine for the timing simulator.

This engine resolves each access against stable MESI states, computing the
critical-path latency of the coherence transaction it triggers (private hit,
chip-local L3 access, off-chip L4/global-directory access, invalidations and
downgrades of remote sharers, main-memory fills) and recording the traffic it
generates.  Commutative-update accesses are treated exactly like conventional
atomic read-modify-writes — which is precisely how the paper's baseline
benchmark implementations behave — so a single workload trace can be run under
MESI and MEUSI and compared directly.

Contention is modelled with per-line serialization at the directory: a
transaction that transfers ownership or invalidates sharers occupies the
line's home until it completes, so concurrent atomics to a hot line queue up.

The transactions are written flat: each sums its eight latency components in
locals, counts messages through precomputed ``(label, bytes)`` pairs, and
mutates directory entries and core states directly.  The same transaction
methods serve the scalar :meth:`MesiProtocol.resolve_slow` and the
group-retirement merge (:meth:`MesiProtocol.resolve_slow_batch`).
"""

from __future__ import annotations

import heapq
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.core.protocol import (
    SHAPE_CONFLICT,
    SHAPE_FAST,
    CoherenceProtocol,
)
from repro.core.states import LineMode, StableState
from repro.interconnect.messages import MessageType
from repro.sim.access import AccessType, MemoryAccess
from repro.sim.config import SystemConfig
from repro.sim.stats import CoreStats, LatencyBreakdown

#: Code-table twins used by the group-retirement loop (Python-int indexed).
from repro.sim.columnar import CODE_KIND, CODE_OP, CODE_VALUE_KIND, decode_value

_KIND_OF_CODE = tuple(int(kind) for kind in CODE_KIND)

# Enum members as module globals: ``LineMode.X`` resolves through the enum
# class on every use, an order of magnitude slower than a global lookup.
M_UNCACHED = LineMode.UNCACHED
M_EXCLUSIVE = LineMode.EXCLUSIVE
M_READ_ONLY = LineMode.READ_ONLY
M_UPDATE_ONLY = LineMode.UPDATE_ONLY
S_INVALID = StableState.INVALID
S_MODIFIED = StableState.MODIFIED
S_EXCLUSIVE = StableState.EXCLUSIVE
S_SHARED = StableState.SHARED
A_LOAD = AccessType.LOAD
A_STORE = AccessType.STORE
A_ATOMIC = AccessType.ATOMIC_RMW
A_COMMUTATIVE = AccessType.COMMUTATIVE_UPDATE
A_REMOTE = AccessType.REMOTE_UPDATE

#: Accesses materialized (ndarray slice -> Python list) per slot per refill in
#: the group-retirement merge; bounds peak list memory at a few KiB per core.
_FLEET_CHUNK = 512


class MesiProtocol(CoherenceProtocol):
    """Full-map directory MESI with the Table 1 four-level hierarchy."""

    name = "MESI"
    #: The batched columnar kernel may classify chunks against this engine's
    #: tables (the generic ``CoherenceProtocol.hot_mask`` implements the MESI
    #: family's rules; MEUSI and RMO inherit both flag and mask).
    SUPPORTS_BATCH_KERNEL = True
    HOT_COMMUTATIVE = "atomic"
    #: The group-retirement stage may retire stretches of this engine's slow
    #: accesses through :meth:`resolve_slow_batch` (same transactions as the
    #: scalar path, bit-identical by construction).
    SUPPORTS_SLOW_BATCH = True

    #: Independence classification (mode x kind).  MESI folds commutative and
    #: remote updates into atomic RMWs, and every stable-mode transaction can
    #: retire in the merge, so all reachable pairs are fast; the update-only
    #: row is unreachable under plain MESI and marked conflict defensively.
    SLOW_SHAPE_TABLE = np.array(
        [
            [SHAPE_FAST] * 5,      # UNCACHED: cold fills / grants
            [SHAPE_FAST] * 5,      # EXCLUSIVE: downgrades / ownership transfer
            [SHAPE_FAST] * 5,      # READ_ONLY: joins / upgrades+invalidation
            [SHAPE_CONFLICT] * 5,  # UPDATE_ONLY: never entered by MESI
        ],
        dtype=np.uint8,
    )

    #: Per-sharer serialization when the home must invalidate several caches.
    PER_SHARER_INVAL_CYCLES = 2.0
    #: Directory bookkeeping occupancy for transactions with no remote action.
    LIGHT_OCCUPANCY = 2.0

    #: Core-model constants, installed by the kernel via :meth:`slow_batch_begin`.
    _sb_core_params: Tuple[float, float, float] = (1.0, 0.0, 0.0)

    def __init__(self, config: SystemConfig, track_values: bool = True) -> None:
        super().__init__(config, track_values=track_values)
        #: Per-core stable state of each line resident in that core's caches.
        self.core_states: List[dict] = [{} for _ in range(config.n_cores)]
        self._line_bytes = config.line_bytes
        self._dir_entries = self.directory._entries
        # Fixed latency components, as the float sums they accumulate to:
        # the L1+L2 lookup every transaction pays, the trip to the chip's L3
        # (and directory slice), and the components of a locate that hits
        # in the requester's L3.
        self._l12_latency = 0.0 + self._l1_latency + self._l2_latency
        self._l3_trip = 0.0 + (self._onchip_hop + self._l3_latency)
        self._l3_hit_levels = (self._l3_trip, 0.0, 0.0, 0.0)
        # Message (label, bytes) pairs for inline traffic counting.
        self._m_gets = self._message(MessageType.GET_SHARED)
        self._m_getx = self._message(MessageType.GET_EXCLUSIVE)
        self._m_data = self._message(MessageType.DATA_RESPONSE)
        self._m_wb = self._message(MessageType.DATA_WRITEBACK)
        self._m_downgrade = self._message(MessageType.DOWNGRADE)
        self._m_inv = self._message(MessageType.INVALIDATE)
        self._m_ack = self._message(MessageType.ACK)
        self._m_put = self._message(MessageType.PUT_LINE)

    # ------------------------------------------------------------------ helpers

    def core_state(self, core_id: int, line_addr: int) -> StableState:
        return self.core_states[core_id].get(line_addr, StableState.INVALID)

    def _set_state(self, core_id: int, line_addr: int, state: StableState) -> None:
        # Slow-path stable-state mutation for the rare paths (evictions,
        # reductions); the transactions below write ``core_states`` and
        # ``touched_cores`` directly with the same effect.  When the batched
        # kernel runs, it registers a set to learn which (core, line) pairs
        # a transaction touched so it can repair their tag mirrors
        # incrementally and invalidate chunk classifications.
        touched = self.touched_cores
        if touched is not None:
            touched.add((core_id, line_addr))
        if state is S_INVALID:
            self.core_states[core_id].pop(line_addr, None)
        else:
            self.core_states[core_id][line_addr] = state

    # -------------------------------------------------------- eviction handling

    def _handle_private_eviction(self, core_id: int, line_addr: int) -> None:
        """A line fell out of a core's private caches (capacity eviction)."""
        state = self.core_states[core_id].get(line_addr)
        if state is None:
            return
        chip = self._chip_of_core[core_id]
        # A dirty line writes back to the chip's L3; a clean one notifies the
        # directory with a control message (no silent drops).
        label, size = self._m_wb if state is S_MODIFIED else self._m_put
        traffic = self.interconnect.traffic
        traffic.on_chip_bytes += size
        traffic.messages_by_type[label] += 1
        traffic.bytes_by_type[label] += size
        self._set_state(core_id, line_addr, S_INVALID)
        self.directory.remove_sharer(line_addr, core_id)
        self.directory.drop_if_uncached(line_addr)
        # Keep the line resident in the chip's L3 (inclusive hierarchy).
        self._l3_caches[chip].insert(line_addr)

    # ----------------------------------------------------- shared-level lookups

    def _ensure_shared_levels(
        self, chip: int, line_addr: int, now: float
    ) -> Tuple[float, float, float, float]:
        """Locate the line's data for a requester on ``chip``.

        The requester always consults its chip's L3 (and directory slice).  If
        the line is not on-chip it travels to the home L4 chip; if the L4 also
        misses, main memory supplies the data.  The touched levels are filled
        so later accesses from this chip hit closer to the core.  Returns the
        ``(l3, offchip_network, l4, main_memory)`` latency components.
        """
        l3 = self._l3_caches[chip]
        if l3.lookup(line_addr):
            return self._l3_hit_levels
        # Off-chip to the home L4 chip (topology- and contention-aware).
        home_l4 = line_addr % self._n_l4_chips
        offchip = 0.0 + self._l4_rt(chip, home_l4, line_addr, now)
        traffic = self.interconnect.traffic
        mbt = traffic.messages_by_type
        bbt = traffic.bytes_by_type
        l_gets, s_gets = self._m_gets
        l_data, s_data = self._m_data
        traffic.off_chip_bytes += s_gets + s_data
        mbt[l_gets] += 1
        bbt[l_gets] += s_gets
        mbt[l_data] += 1
        bbt[l_data] += s_data
        memory = 0.0
        l4 = self._l4_caches[home_l4]
        if not l4.lookup(line_addr):
            memory += self._memory.access(home_l4, now, self._line_bytes).latency
            l4.insert(line_addr)
        l3.insert(line_addr)
        return self._l3_trip, offchip, 0.0 + self._l4_latency, memory

    # ------------------------------------------------- sharer invalidation cost

    def _invalidate_sharers(
        self, requester: int, chip: int, line_addr: int, entry: Any, now: float
    ) -> float:
        """Invalidate every sharer of ``entry`` except the requester.

        Returns the critical-path delay (0.0 when there is nothing to
        invalidate): the global directory sends invalidations to every chip
        with sharers in parallel, each chip invalidates its local caches
        through its L3, and acks flow back.  Cross-chip invalidations
        therefore cost an off-chip round trip plus a small per-sharer
        serialization term; chip-local ones cost an on-chip round trip.
        """
        victims = sorted(entry.sharers - {requester})
        if not victims:
            return 0.0
        chip_of = self._chip_of_core
        victim_chips = {chip_of[core] for core in victims}
        offchip_chips = {victim_chip for victim_chip in victim_chips if victim_chip != chip}
        inval_latency = 0.0
        if offchip_chips:
            # The global directory at the line's home L4 chip invalidates
            # every chip in parallel: the critical path is the slowest
            # L4 <-> chip round trip (all equal under the dancehall).
            home_l4 = line_addr % self._n_l4_chips
            control_rt = self._l4_control_rt
            inval_latency += max(
                control_rt(victim_chip, home_l4, line_addr, now) for victim_chip in offchip_chips
            )
        inval_latency += self._onchip_hop * 2
        inval_latency += self._l2_latency
        inval_latency += self.PER_SHARER_INVAL_CYCLES * (len(victims) - 1)

        traffic = self.interconnect.traffic
        mbt = traffic.messages_by_type
        bbt = traffic.bytes_by_type
        l_inv, s_inv = self._m_inv
        core_states = self.core_states
        private_invalidate = self.hierarchy.private_invalidate
        touched = self.touched_cores
        sharers = entry.sharers
        for core in victims:
            # A Modified copy answers with its data, a clean one with an ack.
            label, size = self._m_wb if core_states[core].get(line_addr) is S_MODIFIED else self._m_ack
            if chip_of[core] != chip:
                traffic.off_chip_bytes += s_inv + size
            else:
                traffic.on_chip_bytes += s_inv + size
            mbt[l_inv] += 1
            bbt[l_inv] += s_inv
            mbt[label] += 1
            bbt[label] += size
            private_invalidate(core, line_addr)
            if touched is not None:
                touched.add((core, line_addr))
            core_states[core].pop(line_addr, None)
            sharers.discard(core)
            if not sharers:
                entry.mode = M_UNCACHED
                entry.op = None
        self.stat_invalidations += len(victims)
        return inval_latency

    # ------------------------------------------------------------- transactions

    def _demand(
        self,
        core_id: int,
        line_addr: int,
        is_load: bool,
        cold: bool,
        now: float,
        latency: LatencyBreakdown,
    ) -> float:
        """GetS (``is_load``) or GetX/upgrade for a core lacking permission.

        Reads of an exclusively held line downgrade the owner and join it in
        read-only mode; other reads are granted E (unshared) or join the
        readers.  Writes take the line from its owner, invalidate its readers,
        or upgrade in place (fetching the data first when ``cold``: the core
        holds no copy).  The line's home serializes the transaction behind
        any in flight.  Charges the eight latency components to ``latency``
        and returns their total.
        """
        chip = self._chip_of_core[core_id]
        entry = self._dir_entries.get(line_addr)
        if entry is None:
            entry = self.directory.entry(line_addr)
        mode = entry.mode
        traffic = self.interconnect.traffic
        mbt = traffic.messages_by_type
        bbt = traffic.bytes_by_type
        label, size = self._m_gets if is_load else self._m_getx
        traffic.on_chip_bytes += size
        mbt[label] += 1
        bbt[label] += size
        touched = self.touched_cores
        b3 = b4 = b5 = b6 = b7 = 0.0
        owner = next(iter(entry.sharers)) if mode is M_EXCLUSIVE else core_id
        if mode is M_EXCLUSIVE and (is_load or owner != core_id):
            # Fetch the data from the exclusive owner, downgrading it.
            owner_chip = self._chip_of_core[owner]
            b3 = self._l3_trip
            occupancy = self._l2_latency + 2 * self._onchip_hop
            l_dg, s_dg = self._m_downgrade
            l_wb, s_wb = self._m_wb
            if owner_chip != chip:
                transfer = self._chip_rt(chip, owner_chip, now)
                occupancy += transfer
                b4 += transfer
                b5 += self._l4_latency
                traffic.off_chip_bytes += s_dg + s_wb
            else:
                traffic.on_chip_bytes += s_dg + s_wb
            b6 += occupancy
            mbt[l_dg] += 1
            bbt[l_dg] += s_dg
            mbt[l_wb] += 1
            bbt[l_wb] += s_wb
            self.stat_downgrades += 1
            self._l3_caches[chip].insert(line_addr)
            if touched is not None:
                touched.add((owner, line_addr))
            if is_load:
                # R1: the owner keeps a read-only copy.
                self.core_states[owner][line_addr] = S_SHARED
            else:
                # W1: ownership moves to the requester.
                self.hierarchy.private_invalidate(owner, line_addr)
                self.core_states[owner].pop(line_addr, None)
                self.stat_invalidations += 1
        elif is_load:
            # R2 (grant E) / R3 (join the readers).
            b3, b4, b5, b7 = self._ensure_shared_levels(chip, line_addr, now)
            occupancy = self.LIGHT_OCCUPANCY
        elif mode is M_READ_ONLY and (
            len(entry.sharers) > 1 or (entry.sharers and core_id not in entry.sharers)
        ):
            # W2: invalidate every other reader, then take ownership.
            b3, b4, b5, b7 = self._ensure_shared_levels(chip, line_addr, now)
            b6 = self._invalidate_sharers(core_id, chip, line_addr, entry, now)
            occupancy = b6 + self.LIGHT_OCCUPANCY
        else:
            # W3: upgrade in place, or fetch-and-own a cold line.
            if cold:
                b3, b4, b5, b7 = self._ensure_shared_levels(chip, line_addr, now)
            occupancy = b4 + b5
            if occupancy < self.LIGHT_OCCUPANCY:
                occupancy = self.LIGHT_OCCUPANCY

        # Queue behind any in-flight transaction for this line.
        start = entry.busy_until
        if now > start:
            start = now
        entry.busy_until = start + occupancy
        b8 = start - now

        if not is_load:
            entry.mode = M_EXCLUSIVE
            entry.sharers = {core_id}
            new_state = S_MODIFIED
        elif mode is M_UNCACHED:
            # The E optimisation of MESI: an unshared read is granted E.
            entry.mode = M_EXCLUSIVE
            entry.sharers = {core_id}
            new_state = S_EXCLUSIVE
        else:
            if mode is M_EXCLUSIVE:
                entry.sharers = {owner}
            entry.mode = M_READ_ONLY
            entry.sharers.add(core_id)
            new_state = S_SHARED
        entry.op = None
        if touched is not None:
            touched.add((core_id, line_addr))
        self.core_states[core_id][line_addr] = new_state
        victim = self.hierarchy.private_fill_victim(core_id, line_addr)
        if victim is not None:
            self._handle_private_eviction(core_id, victim)
        label, size = self._m_data
        traffic.on_chip_bytes += size
        mbt[label] += 1
        bbt[label] += size

        latency.l1 += self._l1_latency
        latency.l2 += self._l2_latency
        latency.l3 += b3
        latency.offchip_network += b4
        latency.l4 += b5
        latency.l4_invalidations += b6
        latency.main_memory += b7
        latency.serialization += b8
        return self._l12_latency + b3 + b4 + b5 + b6 + b7 + b8

    # ------------------------------------------------------------ value helpers

    def _functional_update(self, access: MemoryAccess) -> None:
        if not self.track_values or access.op is None or access.value is None:
            return
        current = self.memory_image.get(access.address, access.op.identity)
        self.memory_image[access.address] = access.op.apply(current, access.value)

    def _functional_write(self, access: MemoryAccess) -> None:
        """Apply a store, or an atomic/update as a read-modify-write."""
        if access.access_type is A_STORE:
            if self.track_values and access.value is not None:
                self.memory_image[access.address] = access.value
        else:
            self._functional_update(access)

    # --------------------------------------------------------------- main entry

    def access_hot(
        self, core_id: int, access: MemoryAccess, now: float, latency: LatencyBreakdown
    ):
        """Resolve one access; private hits return just the hit level (1/2).

        The private-hit fast path performs the same lookups, LRU refreshes,
        state transitions, and functional updates as the simulator's inline
        path and returns the hit level without charging anything (the caller
        charges the fixed L1/L2 hit latency itself); every other access
        returns :meth:`resolve_slow`'s latency total.
        """
        line_addr = access.address >> self._line_shift
        access_type = access.access_type
        # MESI has no update-only support: commutative and remote updates are
        # executed as conventional atomic read-modify-writes.
        if access_type is A_COMMUTATIVE or access_type is A_REMOTE:
            access_type = A_ATOMIC

        states = self.core_states[core_id]
        state = states.get(line_addr)
        level = self._private_level(core_id, line_addr)

        if level and state is not None:
            if access_type is A_LOAD:
                # repro-lint: disable=P203(shared MESI-family fast path also services MEUSI U lines via inheritance; plain MESI never reaches this state)
                if state is not StableState.UPDATE:  # S/E/M can satisfy a load
                    return level
            elif (
                state is S_MODIFIED or state is S_EXCLUSIVE
            ):  # store or atomic with write permission
                states[line_addr] = S_MODIFIED
                self._functional_write(access)
                return level

        return self.resolve_slow(core_id, access, line_addr, state, level, now, latency)

    def resolve_slow(
        self,
        core_id: int,
        access: MemoryAccess,
        line_addr: int,
        state: Optional[StableState],
        level,
        now: float,
        latency: LatencyBreakdown,
    ) -> float:
        if level is None:
            self._private_level(core_id, line_addr)
        self.current_time = now
        # Commutative and remote updates fold into atomic RMWs (GetX).
        is_load = access.access_type is A_LOAD
        total = self._demand(core_id, line_addr, is_load, state is None, now, latency)
        if not is_load:
            self._functional_write(access)
        return total

    # ------------------------------------------------- group retirement (batch)

    def slow_batch_begin(self, cpi: float, atomic_overhead: float, commutative_overhead: float) -> None:
        """Receive the core-model constants the retirement loop charges."""
        self._sb_core_params = (cpi, atomic_overhead, commutative_overhead)

    def resolve_slow_batch(
        self,
        slot_cores: List[int],
        slot_codes: List[Any],
        slot_addrs: List[Any],
        slot_gaps: List[Any],
        slot_deltas: List[Any],
        slot_cursor: List[int],
        slot_limit: List[int],
        slot_clock: List[float],
        slot_stats: List[CoreStats],
        slot_dirty: List[bool],
        streak_cap: int,
        max_retire: int,
    ) -> Tuple[int, int, int]:
        """Group-retire the pending accesses of many cores in one merged call.

        See :meth:`CoherenceProtocol.slow_batch_ready` for the contract.  One
        slot per participating core: ``slot_codes`` / ``slot_addrs`` /
        ``slot_gaps`` / ``slot_deltas`` hold the full per-core trace columns,
        ``slot_cursor`` / ``slot_limit`` the half-open index range still to
        retire, and ``slot_clock`` the core clock at the cursor.  The loop
        replays the exact scalar ``(clock, core_id)`` heap order across all
        slots with a k-way merge — each step retires one access of the
        earliest slot, so the interleaving is bit-identical to the scalar
        heap by construction — while amortizing the per-event interpreter
        cost (window re-extraction, classification, mirror repair, heap
        churn) over whole stretches of the merge.  Hits retire inline with
        the same hand-duplicated probe as the scalar loop;
        independence-classified slow transactions retire through the very
        transaction methods :meth:`resolve_slow` calls (:meth:`_demand`, and
        MEUSI's ``_update``), so both paths mutate, count and charge alike.

        A slot whose head access is a true conflict (cross-op update or
        demand on an update-only line — a reduction trigger — or any update
        under a ``comm_never`` engine) **parks before any mutation**: its
        pending event becomes a bound no other slot may retire past, and the
        merge returns once that event is the earliest remaining, leaving it
        for the caller's exact one-at-a-time path.  The merge also returns
        after ``max_retire`` retirements (so the caller's bail heuristic
        keeps sampling wall-clock) or once ``streak_cap`` consecutive hits
        retire (hit-dense stretches belong to the vectorized window path).

        ``slot_cursor`` and ``slot_clock`` are updated in place;
        ``slot_dirty[s]`` is set when slot ``s``'s private-cache membership
        changed (L2 promotions, fills, evictions), i.e. when its tag mirror
        needs a rebuild.  Returns ``(n_retired, n_slow, n_parked)``.
        """
        cpi, atomic_overhead, commutative_overhead = self._sb_core_params
        # MEUSI-only members (GetU transactions, delta buffers, update
        # statistics) are reached solely under ``comm_local``; the Any view
        # keeps the shared loop in one place without widening the MESI class
        # surface.
        sp: Any = self
        kind_of = _KIND_OF_CODE
        code_op = CODE_OP
        code_vk = CODE_VALUE_KIND
        line_shift = self._line_shift
        l1_lat = self._l1_latency
        l2_lat = self._l2_latency
        l1_hit_total = l1_lat + 0.0
        l2_hit_total = l1_lat + l2_lat + 0.0
        comm_local = self.HOT_COMMUTATIVE == "local"
        comm_never = self.HOT_COMMUTATIVE == "never"
        track = self.track_values
        image = self.memory_image
        dir_entries = self._dir_entries
        demand = self._demand
        private_level = self._private_level
        MOD = S_MODIFIED
        EXC = S_EXCLUSIVE
        # repro-lint: disable=P203(shared MESI-family retirement loop also services MEUSI U shapes via inheritance, mirroring access_hot; plain MESI never reaches those branches)
        UPD = StableState.UPDATE

        # -- per-slot object hoists (indexed by merge slot) --------------------
        n_slots = len(slot_cores)
        a_states = [self.core_states[cid] for cid in slot_cores]
        a_l1 = [self._l1_caches[cid] for cid in slot_cores]
        a_l2 = [self._l2_caches[cid] for cid in slot_cores]
        a_l1_sets = [l1.probe_parts()[0] for l1 in a_l1]
        a_l1_nsets = [l1.probe_parts()[1] for l1 in a_l1]
        a_l2_sets = [l2.probe_parts()[0] for l2 in a_l2]
        a_l2_nsets = [l2.probe_parts()[1] for l2 in a_l2]
        a_slat = [stats.latency for stats in slot_stats]
        # Chunked column materialization (ndarray -> list) per slot, on demand.
        a_codes: List[Any] = [None] * n_slots
        a_addrs: List[Any] = [None] * n_slots
        a_gaps: List[Any] = [None] * n_slots
        a_deltas: List[Any] = [None] * n_slots
        a_base = [0] * n_slots
        a_cend = [0] * n_slots

        heappush = heapq.heappush
        heappop = heapq.heappop
        heap = [
            (slot_clock[s], slot_cores[s], s)
            for s in range(n_slots)
            if slot_cursor[s] < slot_limit[s]
        ]
        heapq.heapify(heap)

        pk_clock = float("inf")  # earliest parked (conflict) event
        pk_cid = -1
        retired = 0
        n_slow = 0
        n_parked = 0
        streak = 0

        while heap:
            clock, cid, s = heappop(heap)
            if clock > pk_clock or (clock == pk_clock and cid > pk_cid):
                # The parked conflict is the next event in heap order: stop
                # and hand it back for the exact one-at-a-time path.
                heappush(heap, (clock, cid, s))
                break
            if heap:
                head = heap[0]
                nxt_clock = head[0]
                nxt_cid = head[1]
            else:
                nxt_clock = pk_clock
                nxt_cid = pk_cid
            core_id = cid
            cursor = slot_cursor[s]
            limit = slot_limit[s]
            stats = slot_stats[s]
            slat = a_slat[s]
            states = a_states[s]
            l1 = a_l1[s]
            l2 = a_l2[s]
            l1_sets = a_l1_sets[s]
            l1_nsets = a_l1_nsets[s]
            l2_sets = a_l2_sets[s]
            l2_nsets = a_l2_nsets[s]
            codes_l = a_codes[s]
            addrs_l = a_addrs[s]
            gaps_l = a_gaps[s]
            deltas_l = a_deltas[s]
            base = a_base[s]
            cend = a_cend[s]

            while True:
                if cursor >= cend:
                    if cursor >= limit:
                        # Slot exhausted (phase limit): leaves the merge.
                        slot_cursor[s] = cursor
                        slot_clock[s] = clock
                        break
                    base = cursor
                    cend = cursor + _FLEET_CHUNK
                    if cend > limit:
                        cend = limit
                    codes_l = a_codes[s] = slot_codes[s][base:cend].tolist()
                    addrs_l = a_addrs[s] = slot_addrs[s][base:cend].tolist()
                    gaps_l = a_gaps[s] = slot_gaps[s][base:cend].tolist()
                    if track:
                        deltas_l = a_deltas[s] = slot_deltas[s][base:cend].tolist()
                    a_base[s] = base
                    a_cend[s] = cend
                i = cursor - base
                code = codes_l[i]
                kind = kind_of[code]
                address = addrs_l[i]
                line_addr = address >> line_shift
                state = states.get(line_addr)
                is_comm = kind >= 3

                # -- classification: a true conflict parks before any mutation
                if is_comm:
                    if comm_never:
                        park = True
                    elif comm_local:
                        entry = dir_entries.get(line_addr)
                        # Cross-op update: full reduction (conflict).
                        park = (
                            entry is not None
                            and entry.mode is M_UPDATE_ONLY
                            and entry.op is not code_op[code]
                        )
                    else:
                        park = False
                elif comm_local:
                    entry = dir_entries.get(line_addr)
                    # Demand on an update-only line: reduction (conflict).
                    park = (
                        entry is not None and entry.mode is M_UPDATE_ONLY
                    ) or state is UPD
                else:
                    park = False
                if park:
                    slot_cursor[s] = cursor
                    slot_clock[s] = clock
                    n_parked += 1
                    if clock < pk_clock or (clock == pk_clock and cid < pk_cid):
                        pk_clock = clock
                        pk_cid = cid
                    break

                gap = gaps_l[i]
                if kind == 0:
                    overhead = 0.0
                    stats.loads += 1
                elif kind == 1:
                    overhead = 0.0
                    stats.stores += 1
                elif kind == 2:
                    overhead = atomic_overhead
                    stats.atomics += 1
                elif kind == 3:
                    overhead = commutative_overhead
                    stats.commutative_updates += 1
                else:
                    overhead = commutative_overhead
                    stats.remote_updates += 1
                think = gap * cpi
                issue = clock + think

                # -- inline private probe (same hand-duplicated sequence as the
                # scalar loop; see CoherenceProtocol._private_level's WARNING)
                level = None
                hit_level = 0
                if state is not None and (True if is_comm else state is not UPD):
                    cache_set = l1_sets.get(line_addr % l1_nsets)
                    if cache_set is not None and cache_set.pop(line_addr, None) is not None:
                        cache_set[line_addr] = True
                        l1.hits += 1
                        level = 1
                    else:
                        l1.misses += 1
                        cache_set = l2_sets.get(line_addr % l2_nsets)
                        if cache_set is not None and cache_set.pop(line_addr, None) is not None:
                            cache_set[line_addr] = True
                            l2.hits += 1
                            l1.insert(line_addr)
                            slot_dirty[s] = True
                            level = 2
                        else:
                            l2.misses += 1
                            level = 0
                    if level:
                        if kind == 0:
                            if state is not UPD:
                                hit_level = level
                        elif state is MOD or state is EXC:
                            states[line_addr] = MOD
                            if track:
                                value = decode_value(code_vk[code], deltas_l[i])
                                if value is not None:
                                    if kind == 1:
                                        image[address] = value
                                    else:
                                        op = code_op[code]
                                        if op is not None:
                                            current = image.get(address, op.identity)
                                            image[address] = op.apply(current, value)
                            if is_comm and comm_local:
                                sp.stat_local_updates += 1
                            hit_level = level
                        elif state is UPD and is_comm and comm_local:
                            entry = dir_entries.get(line_addr)
                            op = code_op[code]
                            if op is not None and entry is not None and entry.op is op:
                                if track:
                                    value = decode_value(code_vk[code], deltas_l[i])
                                    if value is not None:
                                        sp._buffer_for(core_id, line_addr, op).update(
                                            address, value
                                        )
                                sp.stat_local_updates += 1
                                hit_level = level

                if hit_level:
                    slat.l1 += l1_lat
                    if hit_level == 1:
                        latency = l1_hit_total
                    else:
                        slat.l2 += l2_lat
                        latency = l2_hit_total
                    stats.l1_hits += 1
                    stats.accesses += 1
                    stats.compute_cycles += think + overhead
                    stats.memory_cycles += latency
                    clock = issue + overhead + latency
                    cursor += 1
                    retired += 1
                    streak += 1
                    if retired >= max_retire or streak >= streak_cap:
                        slot_cursor[s] = cursor
                        slot_clock[s] = clock
                        return retired, n_slow, n_parked
                    if clock > nxt_clock or (clock == nxt_clock and cid > nxt_cid):
                        slot_cursor[s] = cursor
                        slot_clock[s] = clock
                        heappush(heap, (clock, cid, s))
                        break
                    continue

                # ---------------------------------------------------- slow shapes
                # The same transactions and functional updates as the scalar
                # probe + resolve_slow sequence at this position.
                self.current_time = issue
                slot_dirty[s] = True
                if level is None:
                    # Not probed yet (untracked state / update-state demand):
                    # resolve_slow's exactly-once probe.
                    private_level(core_id, line_addr)
                value = (
                    decode_value(code_vk[code], deltas_l[i])
                    if (track and kind != 0)
                    else None
                )
                op = code_op[code]
                if is_comm and comm_local:
                    # MEUSI GetU shapes (U1-U5; the cross-op U6 parked above).
                    total = sp._update(core_id, line_addr, op, issue, slat)
                    if value is not None:
                        if states.get(line_addr) is MOD:
                            current = image.get(address, op.identity)
                            image[address] = op.apply(current, value)
                        else:
                            sp._buffer_for(core_id, line_addr, op).update(address, value)
                else:
                    # GetS / GetX / upgrade (updates fold into atomic RMWs).
                    total = demand(core_id, line_addr, kind == 0, state is None, issue, slat)
                    if value is not None:
                        if kind == 1:
                            image[address] = value
                        elif op is not None:
                            current = image.get(address, op.identity)
                            image[address] = op.apply(current, value)

                stats.accesses += 1
                stats.compute_cycles += think + overhead
                stats.memory_cycles += total
                clock = issue + overhead + total
                cursor += 1
                retired += 1
                n_slow += 1
                streak = 0
                if retired >= max_retire:
                    slot_cursor[s] = cursor
                    slot_clock[s] = clock
                    return retired, n_slow, n_parked
                if clock > nxt_clock or (clock == nxt_clock and cid > nxt_cid):
                    slot_cursor[s] = cursor
                    slot_clock[s] = clock
                    heappush(heap, (clock, cid, s))
                    break
                # Still the earliest slot: keep retiring its trace in order.

        return retired, n_slow, n_parked
