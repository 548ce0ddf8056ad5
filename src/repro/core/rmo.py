"""Remote-memory-operation (RMO) baseline protocol engine.

RMO schemes (NYU Ultracomputer, Cray T3E, TilePro64, GPUs) ship update
operations to a fixed location — here the home shared-cache bank — instead of
caching the line at the updating core (Fig. 1b).  This avoids ping-ponging the
line between private caches, but every update still crosses the network, and
the single remote ALU at the home bank becomes a throughput bottleneck under
contention.  Reads of RMO-managed data are served from the shared cache as
well to keep the remote copies authoritative.

The paper uses RMOs as the main hardware point of comparison in Sec. 2.1
(qualitatively); this engine lets the reproduction quantify that comparison
and serves as the hardware counterpart of the delegation software baseline.
"""

from __future__ import annotations

import numpy as np

from repro.core.mesi import A_COMMUTATIVE, A_REMOTE, S_INVALID, MesiProtocol
from repro.core.protocol import SHAPE_CONFLICT
from repro.interconnect.messages import MessageType
from repro.sim.access import MemoryAccess
from repro.sim.config import SystemConfig
from repro.sim.stats import LatencyBreakdown


class RmoProtocol(MesiProtocol):
    """MESI plus remote update operations executed at the home L3/L4 bank."""

    name = "RMO"
    #: Remote/commutative updates always travel to the home bank, so the
    #: batched kernel's hot mask (``HOT_COMMUTATIVE = "never"``) classifies
    #: every update slow; only loads and stores batch into hit-runs.  The
    #: bank-ALU queue (``_bank_busy_until``) is therefore only touched from
    #: the globally ordered slow path, which keeps batching bit-identical.
    HOT_COMMUTATIVE = "never"
    #: The bank-ALU queue serializes every update at its home bank, and even
    #: loads/stores can race with a remote update's requester-copy
    #: invalidations, so no RMO transaction shape is independent: group
    #: retirement stays disabled and every slow access takes the exact
    #: scalar heap order.
    SUPPORTS_SLOW_BATCH = False
    SLOW_SHAPE_TABLE = np.full((4, 5), SHAPE_CONFLICT, dtype=np.uint8)

    #: Cycles the home bank ALU is occupied per remote update.
    REMOTE_ALU_CYCLES = 4.0

    def __init__(self, config: SystemConfig, track_values: bool = True) -> None:
        super().__init__(config, track_values=track_values)
        #: ALU availability time of each home bank (the hotspot), indexed by
        #: ``home L4 chip * L3 banks + L3 home bank``.
        self._l3_banks = config.l3.banks
        self._bank_busy_until = [0.0] * (config.n_l4_chips * self._l3_banks)
        self.stat_remote_updates = 0
        self._m_remote_op = self._message(MessageType.REMOTE_OP)

    def access_hot(
        self, core_id: int, access: MemoryAccess, now: float, latency: LatencyBreakdown
    ):
        """RMO hot path: updates always travel to the home bank (never hit)."""
        access_type = access.access_type
        if access_type is A_REMOTE or access_type is A_COMMUTATIVE:
            line_addr = access.address >> self._line_shift
            return self.resolve_slow(core_id, access, line_addr, None, None, now, latency)
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
        if not (access_type is A_REMOTE or access_type is A_COMMUTATIVE):
            return MesiProtocol.resolve_slow(
                self, core_id, access, line_addr, state, level, now, latency
            )
        # Remote update: bypasses the private hierarchy entirely (no probe),
        # travels to the home bank, waits for its ALU and the ack.
        self.current_time = now
        chip = self._chip_of_core[core_id]
        home_chip = line_addr % self._n_l4_chips
        directory = self.directory

        # Any privately cached copies must be invalidated so the remote copy
        # stays authoritative (first update to a line only).
        entry = directory.peek(line_addr)
        shared = entry is not None and bool(entry.sharers)
        b6 = 0.0
        if shared:
            b6 = self._invalidate_sharers(core_id, chip, line_addr, entry, now)
        if self.core_states[core_id].get(line_addr) is not None:
            self.hierarchy.private_invalidate(core_id, line_addr)
            self._set_state(core_id, line_addr, S_INVALID)
            directory.remove_sharer(line_addr, core_id)
            directory.drop_if_uncached(line_addr)
        if shared:
            directory.clear_all_sharers(line_addr)

        # Travel to the home bank (topology- and contention-aware); the remote
        # op request and its ack are a control-only exchange.
        b3 = self._l3_trip
        traffic = self.interconnect.traffic
        l_op, s_op = self._m_remote_op
        l_ack, s_ack = self._m_ack
        if home_chip != chip:
            b4 = 0.0 + self._l4_control_rt(chip, home_chip, line_addr, now)
            b5 = 0.0 + self._l4_latency
            traffic.off_chip_bytes += s_op + s_ack
        else:
            b4 = b5 = 0.0
            traffic.on_chip_bytes += s_op + s_ack
        traffic.messages_by_type[l_op] += 1
        traffic.bytes_by_type[l_op] += s_op
        traffic.messages_by_type[l_ack] += 1
        traffic.bytes_by_type[l_ack] += s_ack

        # Queue for the bank's ALU: this is the RMO hotspot.
        bank = home_chip * self._l3_banks + line_addr % self._l3_banks
        start = self._bank_busy_until[bank]
        if now >= start:
            start = now
        self._bank_busy_until[bank] = start + self.REMOTE_ALU_CYCLES
        b6 += self.REMOTE_ALU_CYCLES
        b8 = start - now

        self._functional_update(access)
        self.stat_remote_updates += 1
        # No L1/L2 lookup or memory component: those stay zero.
        latency.l3 += b3
        latency.offchip_network += b4
        latency.l4 += b5
        latency.l4_invalidations += b6
        latency.serialization += b8
        return b3 + b4 + b5 + b6 + b8
