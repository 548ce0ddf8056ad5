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
methods serve :meth:`MesiProtocol.resolve_slow` and its MEUSI and RMO
overrides.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.protocol import CoherenceProtocol
from repro.core.states import LineMode, StableState
from repro.interconnect.messages import MessageType
from repro.sim.access import AccessType, MemoryAccess
from repro.sim.config import SystemConfig
from repro.sim.stats import LatencyBreakdown

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
A_COMMUTATIVE = AccessType.COMMUTATIVE_UPDATE
A_REMOTE = AccessType.REMOTE_UPDATE


class MesiProtocol(CoherenceProtocol):
    """Full-map directory MESI with the Table 1 four-level hierarchy."""

    name = "MESI"
    #: The batched columnar kernel may classify chunks against this engine's
    #: tables (the generic ``CoherenceProtocol.hot_mask`` implements the MESI
    #: family's rules; MEUSI and RMO inherit both flag and mask).
    SUPPORTS_BATCH_KERNEL = True
    HOT_COMMUTATIVE = "atomic"

    #: Per-sharer serialization when the home must invalidate several caches.
    PER_SHARER_INVAL_CYCLES = 2.0
    #: Directory bookkeeping occupancy for transactions with no remote action.
    LIGHT_OCCUPANCY = 2.0

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
        # a transaction touched, so it can drop the classified windows of
        # other cores that still hold one of those lines.
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

    def _functional_write(self, address: int, op, value) -> None:
        """Apply a store (``op`` is None), or an atomic/update as a read-modify-write."""
        if not self.track_values or value is None:
            return
        memory_image = self.memory_image
        if op is None:
            memory_image[address] = value
        else:
            memory_image[address] = op.apply(memory_image.get(address, op.identity), value)

    # --------------------------------------------------------------- main entry

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
            self._functional_write(access.address, access.op, access.value)
        return total
