"""MEUSI: the COUP-extended MESI protocol engine.

MEUSI adds the update-only (U) state to MESI (Fig. 6): multiple private caches
may simultaneously hold a line in U and satisfy commutative updates of the
line's current operation type locally, buffering deltas relative to the
identity element.  Reads, writes, evictions, and updates of a *different*
commutative type trigger reductions that fold the buffered deltas into the
authoritative copy at the shared cache:

* an L2 capacity eviction of a U line sends its partial update to the chip's
  L3 bank — a *partial reduction*, off the critical path;
* a read or write request to a line in update-only mode triggers a *full
  reduction*: every updater is invalidated, partial updates are gathered
  hierarchically (per-chip L3 reduction, then L4), and the reduction unit
  folds them before data is returned.

Just as MESI grants E to a read of an unshared line, MEUSI grants M to an
update of an unshared line, so interleaved reads and updates to private data
cost the same as under MESI.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.commutative import ALL_OPS, CommutativeOp, DeltaBuffer

#: Op -> index in :data:`ALL_OPS`, for the batch-classification contract.
_OP_INDEX = {op: index for index, op in enumerate(ALL_OPS)}
from repro.core.mesi import (
    A_COMMUTATIVE,
    A_LOAD,
    A_REMOTE,
    M_EXCLUSIVE,
    M_READ_ONLY,
    M_UNCACHED,
    M_UPDATE_ONLY,
    S_EXCLUSIVE,
    S_INVALID,
    S_MODIFIED,
    S_SHARED,
    MesiProtocol,
)
from repro.core.protocol import SHAPE_CONFLICT, SHAPE_FAST, SHAPE_OP_DEPENDENT
from repro.core.states import StableState
from repro.interconnect.messages import MessageType
from repro.sim.access import MemoryAccess
from repro.sim.config import SystemConfig
from repro.sim.stats import LatencyBreakdown

S_UPDATE = StableState.UPDATE


class MeusiProtocol(MesiProtocol):
    """COUP: MESI extended with update-only permission and reductions."""

    name = "COUP"
    HOT_COMMUTATIVE = "local"

    #: Independence classification (mode x kind: load/store/atomic/comm/remote).
    #: Stable MESI modes keep their flattened twins; GetU joins and grants
    #: (U1-U5) are flattened too.  Demand accesses to an update-only line and
    #: cross-op updates trigger full reductions — true conflicts that must
    #: retire through the exact scalar path — so the update-only row is
    #: conflict for demand kinds and op-dependent (same-op joins only) for
    #: commutative/remote updates.
    SLOW_SHAPE_TABLE = np.array(
        [
            [SHAPE_FAST] * 5,  # UNCACHED: cold grants (incl. U1)
            [SHAPE_FAST] * 5,  # EXCLUSIVE: downgrades / U2 / U3
            [SHAPE_FAST] * 5,  # READ_ONLY: joins / upgrades / U4
            [
                SHAPE_CONFLICT,      # load: full reduction
                SHAPE_CONFLICT,      # store: full reduction
                SHAPE_CONFLICT,      # atomic: full reduction
                SHAPE_OP_DEPENDENT,  # commutative: U5 join iff same op
                SHAPE_OP_DEPENDENT,  # remote (folded commutative)
            ],
        ],
        dtype=np.uint8,
    )

    def __init__(self, config: SystemConfig, track_values: bool = True) -> None:
        super().__init__(config, track_values=track_values)
        #: Per-core delta buffers for lines held in U: (core, line) -> buffer.
        self.delta_buffers: Dict[Tuple[int, int], DeltaBuffer] = {}
        #: Commutative updates satisfied locally without any protocol action.
        self.stat_local_updates = 0
        #: Update-only permission grants (GetU transactions).
        self.stat_update_grants = 0
        self._m_getu = self._message(MessageType.GET_UPDATE)
        self._m_grant = self._message(MessageType.GRANT_NO_DATA)
        self._m_put_partial = self._message(MessageType.PUT_PARTIAL)
        self._m_reduce_req = self._message(MessageType.REDUCE_REQUEST)
        self._m_partial = self._message(MessageType.PARTIAL_UPDATE)

    # ----------------------------------------------------------- delta handling

    def _buffer_for(self, core_id: int, line_addr: int, op: CommutativeOp) -> DeltaBuffer:
        key = (core_id, line_addr)
        buffer = self.delta_buffers.get(key)
        if buffer is None or buffer.op is not op:
            buffer = DeltaBuffer(op)
            self.delta_buffers[key] = buffer
        return buffer

    def _apply_local_update(self, core_id: int, access: MemoryAccess) -> None:
        """Buffer a commutative update in the core's U-state line."""
        line_addr = self.line_addr(access.address)
        if self.track_values and access.value is not None:
            buffer = self._buffer_for(core_id, line_addr, access.op)
            buffer.update(access.address, access.value)

    def batch_uop_code(self, core_id: int, line_addr: int) -> int:
        """Op index under which the batched kernel may classify a U line hot.

        Part of the batch-classification contract (see
        :meth:`CoherenceProtocol.hot_mask`): a commutative or remote update
        to a line this core holds in U is a pure local hit only when the
        directory entry carries the same op.  One extra guard keeps batching
        bit-identical when values are tracked: the core's delta buffer for
        the line must already exist.  Creating a buffer inserts a key into
        ``delta_buffers``, and ``finalize`` commits buffers in insertion
        order — floating-point reductions make that order observable — so
        first-buffering updates are deliberately sent through the globally
        ordered slow/inline path instead of a reordered hit-run.  Returns
        the op's :data:`~repro.core.commutative.ALL_OPS` index, or 255
        (``UOP_NONE``) when the line must classify slow.
        """
        entry = self.directory.peek(line_addr)
        if entry is None or entry.op is None:
            return 255
        if self.track_values and (core_id, line_addr) not in self.delta_buffers:
            return 255
        return _OP_INDEX[entry.op]

    def _commit_buffer(self, core_id: int, line_addr: int) -> int:
        """Fold one core's delta buffer into the memory image.

        Returns 1 if a (possibly empty) partial update was present, so callers
        can count the number of partial updates gathered by a reduction.
        """
        key = (core_id, line_addr)
        buffer = self.delta_buffers.pop(key, None)
        if buffer is None:
            return 1
        if self.track_values:
            for word_addr in buffer.touched_offsets():
                current = self.memory_image.get(word_addr, buffer.op.identity)
                self.memory_image[word_addr] = buffer.op.apply(
                    current, buffer.delta(word_addr)
                )
        return 1

    # ------------------------------------------------------- eviction handling

    def _handle_private_eviction(self, core_id: int, line_addr: int) -> None:
        if self.core_states[core_id].get(line_addr) is S_UPDATE:
            # Partial reduction: ship the delta to the chip's L3 reduction unit.
            chip = self._chip_of_core[core_id]
            label, size = self._m_put_partial
            traffic = self.interconnect.traffic
            traffic.on_chip_bytes += size
            traffic.messages_by_type[label] += 1
            traffic.bytes_by_type[label] += size
            unit = self.reduction_unit_for_l3(chip, line_addr)
            unit.schedule(self.current_time, 1)
            self._commit_buffer(core_id, line_addr)
            self._set_state(core_id, line_addr, S_INVALID)
            self.directory.remove_sharer(line_addr, core_id)
            self.directory.drop_if_uncached(line_addr)
            self._l3_caches[chip].insert(line_addr)
            self.stat_partial_reductions += 1
            return
        super()._handle_private_eviction(core_id, line_addr)

    # ---------------------------------------------------------- full reductions

    def _full_reduction(self, requester: int, line_addr: int, now: float) -> float:
        """Reduce all update-only copies of a line into the shared cache.

        Returns the critical-path latency.  The reduction is hierarchical:
        each chip with updaters invalidates them and folds their partial
        updates at its L3 bank's reduction unit; the home L4 bank then folds
        the per-chip results.  The critical path is therefore the slowest
        chip-local gather plus the cross-chip gather, mirroring the
        8 + 16 = 24 example of Sec. 3.2.
        """
        entry = self.directory.entry(line_addr)
        chip_of = self._chip_of_core
        requester_chip = chip_of[requester]
        chips: Dict[int, List[int]] = {}
        for core in sorted(entry.sharers):
            chips.setdefault(chip_of[core], []).append(core)

        traffic = self.interconnect.traffic
        mbt = traffic.messages_by_type
        bbt = traffic.bytes_by_type
        l_req, s_req = self._m_reduce_req
        l_part, s_part = self._m_partial
        critical_path = 0.0
        # repro-lint: disable=D102(chips is keyed by ascending core id so view order is deterministic; the loop accumulates order-insensitive sums and maxima)
        for chip, cores in chips.items():
            # Invalidation fan-out within the chip plus local gather.
            local_latency = (
                2 * self._onchip_hop
                + self._l2_latency
                + self.PER_SHARER_INVAL_CYCLES * max(0, len(cores) - 1)
            )
            timing = self.reduction_unit_for_l3(chip, line_addr).schedule(now, len(cores))
            local_latency += timing.latency
            # Reduce requests cross off-chip to remote chips; each updater
            # returns its partial update to its own chip's L3.
            if chip != requester_chip:
                traffic.off_chip_bytes += s_req * len(cores)
            else:
                traffic.on_chip_bytes += s_req * len(cores)
            traffic.on_chip_bytes += s_part * len(cores)
            for core in cores:
                mbt[l_req] += 1
                bbt[l_req] += s_req
                mbt[l_part] += 1
                bbt[l_part] += s_part
                self._commit_buffer(core, line_addr)
                self.hierarchy.private_invalidate(core, line_addr)
                self._set_state(core, line_addr, S_INVALID)
            if chip != requester_chip:
                # The chip's single aggregated partial update crosses off-chip
                # to the home L4 bank's reduction unit.
                traffic.off_chip_bytes += s_part
                mbt[l_part] += 1
                bbt[l_part] += s_part
                local_latency += self._l4_partial(
                    chip, line_addr % self._n_l4_chips, line_addr, now
                )
            critical_path = max(critical_path, local_latency)

        if len(chips) > 1 or (chips and requester_chip not in chips):
            # Cross-chip gather at the home L4 bank's reduction unit.
            l4_unit = self.reduction_unit_for_l4(line_addr)
            timing = l4_unit.schedule(now, max(1, len(chips)))
            critical_path += timing.latency + self._l4_latency

        self.stat_full_reductions += 1
        self.stat_invalidations += len(entry.sharers)
        self.directory.clear_all_sharers(line_addr)
        return critical_path

    # ------------------------------------------------------------- transactions

    def _update(
        self,
        core_id: int,
        line_addr: int,
        op: CommutativeOp,
        now: float,
        latency: LatencyBreakdown,
    ) -> float:
        """GetU: obtain update-only (or exclusive, if unshared) permission.

        U1 grants M to an unshared line (the E-like optimisation of Fig. 6);
        U2 lets an exclusive owner update its own copy; U3 downgrades another
        exclusive owner to U so both become updaters; U4 invalidates the
        readers; U5 joins the updaters of the same op; U6 — an update of a
        different op — fully reduces the line first.  Charges the latency
        components to ``latency`` and returns their total, like
        :meth:`_demand`, whose structure this mirrors.
        """
        chip = self._chip_of_core[core_id]
        entry = self._dir_entries.get(line_addr)
        if entry is None:
            entry = self.directory.entry(line_addr)
        mode = entry.mode
        traffic = self.interconnect.traffic
        mbt = traffic.messages_by_type
        bbt = traffic.bytes_by_type
        label, size = self._m_getu
        traffic.on_chip_bytes += size
        mbt[label] += 1
        bbt[label] += size
        self.stat_update_grants += 1
        touched = self.touched_cores
        if mode is M_EXCLUSIVE and next(iter(entry.sharers)) == core_id:
            # U2: our own copy absorbs commutative updates in M, in place.
            if touched is not None:
                touched.add((core_id, line_addr))
            self.core_states[core_id][line_addr] = S_MODIFIED
            latency.l1 += self._l1_latency
            latency.l2 += self._l2_latency
            return self._l12_latency

        b3 = b4 = b5 = b6 = b7 = 0.0
        if mode is M_EXCLUSIVE:
            # U3: downgrade the owner M->U; both caches become updaters.  The
            # owner's data is written back to the shared cache and it keeps
            # an update-only copy initialised to the identity element.
            owner = next(iter(entry.sharers))
            owner_chip = self._chip_of_core[owner]
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
            self._l3_caches[owner_chip].insert(line_addr)
            entry.sharers = {owner}
            if touched is not None:
                touched.add((owner, line_addr))
            self.core_states[owner][line_addr] = S_UPDATE
            self._buffer_for(owner, line_addr, op)
        elif mode is M_UPDATE_ONLY and entry.op is not op:
            # U6: updates of different types do not commute — fully reduce
            # first (type switch through the NN transient in Fig. 7b).
            b6 = self._full_reduction(core_id, line_addr, now)
            occupancy = b6 + self.LIGHT_OCCUPANCY
        else:
            # U1 (unshared) / U4 (readers) / U5 (same-op join) locate the
            # data first; U4 invalidates the readers.
            b3, b4, b5, b7 = self._ensure_shared_levels(chip, line_addr, now)
            occupancy = self.LIGHT_OCCUPANCY
            if mode is M_READ_ONLY:
                b6 = self._invalidate_sharers(core_id, chip, line_addr, entry, now)
                occupancy = b6 + self.LIGHT_OCCUPANCY
                entry.sharers.clear()

        # Queue behind any in-flight transaction for this line.
        start = entry.busy_until
        if now > start:
            start = now
        entry.busy_until = start + occupancy
        b8 = start - now

        if mode is M_UNCACHED:
            # U1: unshared, grant M directly (the E-like optimisation).
            entry.mode = M_EXCLUSIVE
            entry.sharers = {core_id}
            entry.op = None
            new_state = S_MODIFIED
            label, size = self._m_data
        else:
            entry.mode = M_UPDATE_ONLY
            entry.sharers.add(core_id)
            entry.op = op
            new_state = S_UPDATE
            label, size = self._m_grant
        if touched is not None:
            touched.add((core_id, line_addr))
        self.core_states[core_id][line_addr] = new_state
        victim = self.hierarchy.private_fill_victim(core_id, line_addr)
        if victim is not None:
            self._handle_private_eviction(core_id, victim)
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

    def _reduce_demand(
        self, core_id: int, line_addr: int, is_load: bool, now: float, latency: LatencyBreakdown
    ) -> float:
        """Read or write request to a line currently in update-only mode.

        Both fully reduce the line first; a read then joins it read-only, a
        write takes it exclusively.  Charges and returns the latency like
        :meth:`_demand`.
        """
        chip = self._chip_of_core[core_id]
        traffic = self.interconnect.traffic
        mbt = traffic.messages_by_type
        bbt = traffic.bytes_by_type
        label, size = self._m_gets if is_load else self._m_getx
        traffic.on_chip_bytes += size
        mbt[label] += 1
        bbt[label] += size
        b3, b4, b5, b7 = self._ensure_shared_levels(chip, line_addr, now)
        b6 = self._full_reduction(core_id, line_addr, now)
        entry = self.directory.entry(line_addr)
        start = entry.busy_until
        if now > start:
            start = now
        entry.busy_until = start + (b6 + self.LIGHT_OCCUPANCY)
        b8 = start - now
        # The reduction left the entry uncached with no sharers.
        entry.mode = M_READ_ONLY if is_load else M_EXCLUSIVE
        entry.sharers.add(core_id)
        self._set_state(core_id, line_addr, S_SHARED if is_load else S_MODIFIED)
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

    # ------------------------------------------------------------- main entry

    def access_hot(
        self, core_id: int, access: MemoryAccess, now: float, latency: LatencyBreakdown
    ):
        """MEUSI hot path: local commutative updates return just the hit level.

        See :meth:`MesiProtocol.access_hot` for the return convention.
        """
        line_addr = access.address >> self._line_shift
        states = self.core_states[core_id]
        state = states.get(line_addr)
        access_type = access.access_type
        if access_type is A_COMMUTATIVE or access_type is A_REMOTE:
            # A COUP machine executes remote updates as commutative updates.
            entry = self.directory.peek(line_addr)
            level = self._private_level(core_id, line_addr)
            if level and state is not None:
                if state is S_MODIFIED or state is S_EXCLUSIVE:
                    # Our own M/E copy can absorb any commutative update.
                    states[line_addr] = S_MODIFIED
                    self._functional_update(access)
                    self.stat_local_updates += 1
                    return level
                if (
                    state is S_UPDATE
                    and access.op is not None
                    and entry is not None
                    and entry.op is access.op
                ):
                    # U-state line of the same update type: buffer locally.
                    self._apply_local_update(core_id, access)
                    self.stat_local_updates += 1
                    return level
            return self.resolve_slow(core_id, access, line_addr, state, level, now, latency)

        entry = self.directory.peek(line_addr)
        if (entry is not None and entry.mode is M_UPDATE_ONLY) or state is S_UPDATE:
            # Demands on update-only lines never hit: resolve them unprobed.
            return self.resolve_slow(core_id, access, line_addr, state, None, now, latency)
        return MesiProtocol.access_hot(self, core_id, access, now, latency)

    def resolve_slow(
        self,
        core_id: int,
        access: MemoryAccess,
        line_addr: int,
        state,
        level,
        now: float,
        latency: LatencyBreakdown,
    ) -> float:
        access_type = access.access_type
        if access_type is A_COMMUTATIVE or access_type is A_REMOTE:
            if level is None:
                self._private_level(core_id, line_addr)
            self.current_time = now
            total = self._update(core_id, line_addr, access.op, now, latency)
            if self.core_states[core_id].get(line_addr) is S_MODIFIED:
                self._functional_update(access)
            else:
                self._apply_local_update(core_id, access)
            return total

        self.current_time = now
        entry = self.directory.peek(line_addr)
        if entry is not None and entry.mode is M_UPDATE_ONLY:
            # Reads and writes of update-only lines trigger a full reduction.
            total = self._reduce_demand(
                core_id, line_addr, access_type is A_LOAD, now, latency
            )
            if access_type is not A_LOAD:
                self._functional_write(access)
            return total

        # A core's own U-state line cannot satisfy loads/stores; drop to I
        # first so the MESI demand treats it as a miss.  This can only happen
        # if the directory entry lost update mode, which the full-reduction
        # path above prevents; kept as a safety net.
        if self.core_states[core_id].get(line_addr) is S_UPDATE:
            self._commit_buffer(core_id, line_addr)
            self._set_state(core_id, line_addr, S_INVALID)
            self.directory.remove_sharer(line_addr, core_id)
            state = None
        return MesiProtocol.resolve_slow(
            self, core_id, access, line_addr, state, level, now, latency
        )

    # ---------------------------------------------------------------- finalize

    def finalize(self) -> None:
        """Fold every outstanding delta buffer into the memory image.

        At the end of a run some lines may still be in update-only mode; their
        buffered deltas have not yet been observed by any reader.  Committing
        them here makes the functional memory image equal to what a reader
        would see after a full reduction, which is what result-checking tests
        compare against.
        """
        # repro-lint: disable=D102(buffers commit independently per line; insertion order is the deterministic trace order, pinned by golden fingerprints)
        for (core_id, line_addr) in list(self.delta_buffers.keys()):
            self._commit_buffer(core_id, line_addr)

    # -------------------------------------------------------------- statistics

    def reduction_statistics(self) -> dict:
        """Reduction-related counters used by experiments and tests."""
        return {
            "local_updates": self.stat_local_updates,
            "update_grants": self.stat_update_grants,
            "full_reductions": self.stat_full_reductions,
            "partial_reductions": self.stat_partial_reductions,
        }
