"""Abstract coherence protocol interface used by the timing simulator.

A protocol engine owns all coherence state for one simulation run: per-core
private line states, directory entries, reduction units, and the functional
memory image used to check results.  The simulator hands it one access at a
time (in global-time order) through the engine's one-access step
(:meth:`CoherenceProtocol.make_step`), which charges the access's issue
timing and critical-path latency, broken down by level, to the issuing
core's :class:`~repro.sim.stats.CoreStats`; the engine records the traffic
generated and the coherence actions taken along the way.  The
public :meth:`CoherenceProtocol.access` API wraps one access in an
:class:`AccessOutcome` for tests and interactive use.

Protocol engines resolve each access atomically against *stable* states; the
transient-state machinery needed for correctness on an unordered network is
modelled and verified separately in :mod:`repro.verification`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Set, Tuple

import numpy as np

from repro import obs as _obs
from repro.core.directory import Directory
from repro.core.reduction import ReductionUnit
from repro.core.states import StableState
from repro.hierarchy.cache import STATE_EXCLUSIVE, STATE_MODIFIED, STATE_UPDATE, UOP_NONE
from repro.hierarchy.system import CacheHierarchy
from repro.interconnect.messages import MessageType
from repro.interconnect.network import InterconnectModel
from repro.sim.access import AccessType, MemoryAccess
from repro.sim.columnar import (
    CODE_ACCESS_TYPE,
    CODE_OF_SHAPE,
    CODE_OP,
    CODE_SIZE,
    COMM_MIN_CODE,
    COMMUTATIVE_MIN_CODE,
    KIND_COMMUTATIVE,
    KIND_LOAD,
    REMOTE_MIN_CODE,
    UPDATE_MIN_CODE,
    TraceCodecError,
)
from repro.sim.config import SystemConfig
from repro.sim.stats import CoreStats, LatencyBreakdown

@dataclass(slots=True)
class AccessOutcome:
    """Result of resolving one memory access through :meth:`CoherenceProtocol.access`.

    Only that public one-access API builds these; the simulator's per-access
    paths charge latency in place and never allocate one.
    """

    latency: LatencyBreakdown = field(default_factory=LatencyBreakdown)
    #: Value returned to the core (loads and atomics only; None otherwise).
    value: object = None
    #: Whether the access hit in the private hierarchy without protocol action.
    private_hit: bool = False
    #: Number of caches invalidated or downgraded on the critical path.
    invalidations: int = 0
    #: Whether a full reduction was performed to satisfy this access.
    full_reduction: bool = False

    @property
    def total_latency(self) -> float:
        return self.latency.total


class CoherenceProtocol(abc.ABC):
    """Base class for the stable-state protocol engines (MESI, MEUSI, RMO)."""

    #: Human-readable protocol name used in results and experiment tables.
    name: str = "abstract"

    #: Whether the batched columnar kernel (:mod:`repro.sim.kernel`) may
    #: classify whole chunks of accesses against this engine's tables via
    #: :meth:`hot_mask` and advance hit-runs without per-access protocol
    #: calls (the kernel resolves run boundaries through :meth:`make_step`).
    SUPPORTS_BATCH_KERNEL: bool = False

    #: How :meth:`make_step` and :meth:`hot_mask` treat commutative/remote
    #: updates: ``"atomic"`` folds them into atomic read-modify-writes (MESI),
    #: ``"local"`` applies COUP's update-only rules (MEUSI), ``"never"``
    #: forces the slow path (RMO).
    HOT_COMMUTATIVE: str = "atomic"

    def __init__(self, config: SystemConfig, track_values: bool = True) -> None:
        self.config = config
        self.track_values = track_values
        self.hierarchy = CacheHierarchy(config)
        self.directory = Directory()
        self.interconnect: InterconnectModel = self.hierarchy.interconnect
        # -- hot-path tables, computed once per run ---------------------------
        # The per-access resolution path must not recompute config-derived
        # quantities; everything it needs is hoisted here.
        if config.line_bytes & (config.line_bytes - 1):
            raise ValueError("line_bytes must be a power of two")
        #: ``addr >> _line_shift`` == ``config.line_address(addr)``.
        self._line_shift = config.line_bytes.bit_length() - 1
        #: Chip hosting each core, as a flat table (no bounds check, no division).
        self._chip_of_core = [
            core // config.cores_per_chip for core in range(config.n_cores)
        ]
        self._onchip_hop = self.interconnect.onchip_hop_latency()
        self._offchip_round_trip = self.interconnect.offchip_round_trip()
        # Per-pair off-chip latency hooks.  Engines call
        # ``self._l4_rt(chip, l4_chip, line_addr, now)`` for a demand-fetch
        # chip <-> home-L4 round trip, ``self._l4_control_rt(...)`` for a
        # control-only exchange (invalidate/ack, remote op/ack),
        # ``self._l4_partial(...)`` for a reduction gather (data travels
        # chip -> L4), and ``self._chip_rt(src, dst, now)`` for a chip <->
        # chip transfer.  All three L4 kinds share one base latency; they
        # differ only in the bytes the contention model occupies links with.
        # With contention disabled every hook is a pure table lookup (under
        # the default dancehall every entry equals the original fixed
        # constants, so results are bit-identical to the pre-topology
        # model); with contention enabled they also accumulate epoch
        # occupancy and fold the queueing surcharge into the latency.
        contention = self.interconnect.contention
        if contention is not None:
            self._l4_rt = contention.l4_round_trip
            self._l4_control_rt = contention.l4_control_round_trip
            self._l4_partial = contention.l4_partial_update
            self._chip_rt = contention.chip_transfer
        else:
            l4_table = self.interconnect.l4_round_trip_table
            chip_table = self.interconnect.chip_transfer_table
            self._l4_rt = lambda chip, l4, line_addr, now: l4_table[chip][l4]
            self._l4_control_rt = self._l4_rt
            self._l4_partial = self._l4_rt
            self._chip_rt = lambda src, dst, now: chip_table[src][dst]
        self._l1_latency = config.l1d.latency
        self._l2_latency = config.l2.latency
        self._l3_latency = config.l3.latency
        self._l4_latency = config.l4.latency
        self._l1_caches = self.hierarchy.l1
        self._l2_caches = self.hierarchy.l2
        self._l3_caches = self.hierarchy.l3
        self._l4_caches = self.hierarchy.l4
        self._memory = self.hierarchy.memory
        self._n_l4_chips = config.n_l4_chips
        #: One reduction unit per L3 bank per chip plus one per L4 bank.
        self.l3_reduction_units = {
            (chip, bank): ReductionUnit(config.reduction_unit, name=f"rdu.l3.{chip}.{bank}")
            for chip in range(config.n_chips)
            for bank in range(config.l3.banks)
        }
        self.l4_reduction_units = {
            (chip, bank): ReductionUnit(config.reduction_unit, name=f"rdu.l4.{chip}.{bank}")
            for chip in range(config.n_l4_chips)
            for bank in range(config.l4.banks)
        }
        #: Functional memory image: word address -> value.
        self.memory_image: Dict[int, object] = {}
        #: When the batched kernel runs, this holds a set that every
        #: cross-core stable-state mutation (``MesiProtocol._set_state``)
        #: records ``(core_id, line_addr)`` pairs into, so the kernel knows
        #: which tag-mirror entries and chunk classifications a slow-path
        #: action invalidated.  ``None`` (the default) disables the
        #: bookkeeping for the scalar paths.
        self.touched_cores: Optional[Set] = None
        #: Simulator time of the access currently being resolved; protocol
        #: engines set this at the top of :meth:`access` so internal helpers
        #: (evictions, reductions) can schedule shared resources correctly.
        self.current_time: float = 0.0
        # Aggregate statistics (also mirrored in SimulationResult).
        self.stat_invalidations = 0
        self.stat_downgrades = 0
        self.stat_full_reductions = 0
        self.stat_partial_reductions = 0
        #: Telemetry hook (``repro.obs``): ``None`` when ``REPRO_OBS=off``.
        #: Engines may ``self.obs.inc(...)`` on their own slow paths (guarded
        #: on ``is not None``); the simulator folds the run's aggregate
        #: protocol statistics through :meth:`obs_fold_stats` at finish.
        #: Write-only from the simulation's point of view — nothing here is
        #: ever read back into a SimulationResult.
        self.obs = _obs.get_registry()

    # -- functional memory image ----------------------------------------------

    def read_word(self, address: int):
        """Current architectural value of a word (after any pending reduction).

        Note: callers must have triggered the protocol-level reduction first;
        this only consults the committed memory image.
        """
        return self.memory_image.get(address, 0)

    # -- telemetry -------------------------------------------------------------

    def obs_fold_stats(self) -> None:
        """Fold the run's protocol-level aggregates into the obs registry.

        Called once by the simulator when a run finishes (after the result
        statistics are final), so telemetry reports carry protocol context
        — invalidation/downgrade/reduction volume — next to the kernel's
        phase timings.  One-way: the registry is never read back.
        """
        reg = self.obs
        if reg is None:
            return
        reg.inc("protocol.invalidations", self.stat_invalidations)
        reg.inc("protocol.downgrades", self.stat_downgrades)
        reg.inc("protocol.full_reductions", self.stat_full_reductions)
        reg.inc("protocol.partial_reductions", self.stat_partial_reductions)

    def _message(self, msg_type: MessageType) -> Tuple[str, int]:
        """``(label, bytes)`` of one message type, for inline traffic counting.

        Engines hoist one pair per message type at construction and count a
        message by adding the size to the link scope's byte total and to the
        per-label message/byte counters — what
        :meth:`~repro.interconnect.network.InterconnectModel.record_one`
        does, without the call and the enum lookups.
        """
        label = msg_type.label
        return label, self.interconnect._size_of[label]

    # -- protocol interface ----------------------------------------------------

    def access(self, core_id: int, access: MemoryAccess, now: float) -> AccessOutcome:
        """Resolve one access issued by ``core_id`` at simulator time ``now``.

        The public one-access API: retires the access through
        :meth:`make_step` against a fresh :class:`CoreStats`, issued at
        ``now`` with no think time (the caller owns the core's clock), and
        describes the result as an :class:`AccessOutcome`.  The latency
        breakdown and ``private_hit`` are read from those statistics;
        ``invalidations`` counts the caches the access invalidated or
        downgraded (from the engine's aggregate statistics) and ``value`` is
        the word's value after the access for loads, and for atomics an
        engine executes as read-modify-writes.
        """
        access_type = access.access_type
        try:
            code = CODE_OF_SHAPE[(access_type, access.op, access.size_bytes)]
        except KeyError:
            raise TraceCodecError(
                f"unrepresentable access shape: type={access_type}, "
                f"op={access.op}, size_bytes={access.size_bytes}"
            ) from None
        stats = CoreStats(core_id=core_id)
        invalidations = self.stat_invalidations
        downgrades = self.stat_downgrades
        reductions = self.stat_full_reductions
        self.make_step()(core_id, code, access.address, access.value, 0.0, now, stats)
        returns_value = self.track_values and access_type is not AccessType.STORE and (
            self.HOT_COMMUTATIVE == "atomic" or not access_type.is_commutative
        )
        return AccessOutcome(
            latency=stats.latency,
            value=self.memory_image.get(access.address, 0) if returns_value else None,
            private_hit=stats.l1_hits == 1,
            invalidations=max(
                self.stat_invalidations - invalidations,
                self.stat_downgrades - downgrades,
            ),
            full_reduction=self.stat_full_reductions > reductions,
        )

    def make_step(self) -> Callable[..., float]:
        """Build the one-access step: the only place an access is retired.

        Returns ``step(core_id, code, address, value, gap, clock, stats)``,
        which retires one access given as its packed ``type_code`` (see
        :mod:`repro.sim.columnar`), byte address, decoded operand value and
        think count, for a core whose clock reads ``clock``, and returns the
        access's completion time.  The step owns the whole per-access rule:

        * **Issue timing** (paper Sec. 5.1): the access issues after its
          think time, ``gap * cpi``, and occupies the core for a per-type
          issue overhead — atomics pay the full µop and fence cost,
          commutative and remote updates a smaller one — before memory
          latency.  Both constants come from ``config.core`` as floats;
          ``tests/sim/test_access_api.py`` replays simulations against a
          reference model of this rule.
        * **Private hits.**  A core satisfies an access in its private
          caches only under its stable state: S/E/M for a load, E/M for a
          store or atomic (left in M), and — per :attr:`HOT_COMMUTATIVE` —
          E/M or, under ``"local"``, U with the directory entry's op for a
          commutative or remote update.  Such a hit applies its functional
          effect and is charged the fixed L1 (or L1 + L2) latency.  Every
          other access is materialized as a :class:`MemoryAccess` and
          charged :meth:`resolve_slow`'s total.
        * **Accounting**: the per-type counter, ``accesses``,
          ``compute_cycles`` (think time plus issue overhead),
          ``memory_cycles``, ``l1_hits`` (one per private hit, at either
          level) and the latency breakdown, all on ``stats``.

        The private caches are probed (once, through :meth:`_private_level`)
        only when a hit is possible; any other access is probed inside
        :meth:`resolve_slow` if its transaction needs one.  The engine's
        tables — and ``self.resolve_slow`` itself, which instrumentation
        may wrap — are hoisted when the step is built, so build one per run.
        The scalar loop, the batched kernel's boundary accesses and short
        hit-run slices, and :meth:`access` all retire through it;
        :meth:`hot_mask` is the vectorized twin of its private-hit rules and
        the kernel's long-slice path the vectorized twin of its accounting.
        """
        # The MESI family's tables; MEUSI adds the U-line hooks.
        protocol: Any = self
        resolve_slow = self.resolve_slow
        private_level = self._private_level
        core_states = protocol.core_states
        directory_entries = self.directory._entries
        line_shift = self._line_shift
        track_values = self.track_values
        comm_local = self.HOT_COMMUTATIVE == "local"
        comm_never = self.HOT_COMMUTATIVE == "never"
        core = self.config.core
        cpi = core.cycles_per_instruction
        atomic_overhead = float(core.atomic_uop_overhead)
        commutative_overhead = float(core.commutative_uop_overhead)
        l1_latency = self._l1_latency
        l2_latency = self._l2_latency
        l1_hit_total = l1_latency + 0.0
        l2_hit_total = l1_latency + l2_latency + 0.0
        new_access = MemoryAccess.__new__
        code_type = CODE_ACCESS_TYPE
        code_op = CODE_OP
        code_size = CODE_SIZE
        # type_code classification bounds: loads, then stores, then atomic,
        # commutative and remote updates in ascending code ranges.
        store_min = UPDATE_MIN_CODE
        atomic_min = COMM_MIN_CODE
        commutative_min = COMMUTATIVE_MIN_CODE
        remote_min = REMOTE_MIN_CODE
        exclusive = StableState.EXCLUSIVE
        modified = StableState.MODIFIED
        update = StableState.UPDATE

        def step(core_id, code, address, value, gap, clock, stats):
            if code < store_min:
                overhead = 0.0
                stats.loads += 1
            elif code < atomic_min:
                overhead = 0.0
                stats.stores += 1
            elif code < commutative_min:
                overhead = atomic_overhead
                stats.atomics += 1
            elif code < remote_min:
                overhead = commutative_overhead
                stats.commutative_updates += 1
            else:
                overhead = commutative_overhead
                stats.remote_updates += 1
            think = gap * cpi
            issue_time = clock + think

            line_addr = address >> line_shift
            states = core_states[core_id]
            state = states.get(line_addr)
            level = None
            hit = False
            if state is not None and (
                (not comm_never) if code >= commutative_min else state is not update
            ):
                level = private_level(core_id, line_addr)
                if level:
                    if code < store_min:  # LOAD under S/E/M
                        hit = True
                    elif state is modified or state is exclusive:
                        states[line_addr] = modified
                        if track_values:
                            protocol._functional_write(address, code_op[code], value)
                        if comm_local and code >= commutative_min:
                            protocol.stat_local_updates += 1
                        hit = True
                    elif state is update and comm_local:
                        # A same-op update buffers in the core's U line.
                        op = code_op[code]
                        entry = directory_entries.get(line_addr)
                        if entry is not None and entry.op is op:
                            if track_values and value is not None:
                                protocol._buffer_for(core_id, line_addr, op).update(
                                    address, value
                                )
                            protocol.stat_local_updates += 1
                            hit = True
            if hit:
                latency_record = stats.latency
                latency_record.l1 += l1_latency
                if level == 1:
                    latency = l1_hit_total
                else:
                    latency_record.l2 += l2_latency
                    latency = l2_hit_total
                stats.l1_hits += 1
            else:
                access = new_access(MemoryAccess)
                access.access_type = code_type[code]
                access.address = address
                access.op = code_op[code]
                access.value = value
                access.think_instructions = int(gap)
                access.size_bytes = code_size[code]
                latency = resolve_slow(
                    core_id, access, line_addr, state, level, issue_time, stats.latency
                )
            stats.accesses += 1
            stats.compute_cycles += think + overhead
            stats.memory_cycles += latency
            return issue_time + overhead + latency

        return step

    @abc.abstractmethod
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
        """Resolve an access :meth:`make_step`'s private-hit rules rejected.

        Only the step calls this, for accesses that need transaction
        machinery.  ``state`` is the core's stable state for the line
        (``None`` if untracked) and ``level`` is the private-lookup result
        if the step already probed the caches — or ``None`` if it did not,
        in which case the probe must happen here (when the transaction
        needs one) so lookup statistics and LRU state advance exactly once
        per access.

        Scalar-return contract: the engine sums the access's eight latency
        components in locals, adds each once to ``latency`` (the issuing
        core's accumulated :class:`LatencyBreakdown`) in field order —
        ``l1``, ``l2``, ``l3``, ``offchip_network``, ``l4``,
        ``l4_invalidations``, ``main_memory``, ``serialization`` — and
        returns their total, summed in the same order, as a float.  Nothing
        is allocated per access; the step charges the total to the core's
        clock and memory cycles.
        """

    def hot_mask(
        self,
        kinds: np.ndarray,
        member: np.ndarray,
        states: np.ndarray,
        uops: Optional[np.ndarray],
        op_index: np.ndarray,
    ) -> np.ndarray:
        """Vectorized twin of :meth:`make_step`'s private-hit rules (batch contract).

        Given one chunk of a core's columnar trace, return a boolean array
        marking the accesses the engine would satisfy entirely within the
        core's private L1 with **no** protocol action — exactly the L1 hits
        :meth:`make_step` resolves without calling :meth:`resolve_slow`.
        Inputs are parallel arrays over the chunk:

        ``kinds``
            Access kind per :data:`repro.sim.columnar.CODE_KIND`.
        ``member``
            Whether the line is L1-resident (from the core's
            :class:`~repro.hierarchy.cache.TagArray` mirror).
        ``states``
            The core's stable-state code for the line
            (``repro.hierarchy.cache.STATE_*``; 0 when absent/untracked).
        ``uops``
            For ``STATE_UPDATE`` lines, the directory entry's op index when
            same-type updates may buffer locally (else ``UOP_NONE``).
            ``None`` unless :attr:`HOT_COMMUTATIVE` is ``"local"``.
        ``op_index``
            The access's own op index (:data:`repro.sim.columnar.CODE_OP_INDEX`).

        The generic implementation is driven by :attr:`HOT_COMMUTATIVE`, the
        same switch the step uses, so the MESI family shares it:
        loads hit on S/E/M, stores and atomics on E/M, and commutative or
        remote updates follow the engine's folding rule.  MEUSI's
        update-state lines classify hot only for matching-op buffering;
        everything touching reduction units classifies slow.  Engines with
        different stable-state semantics must override this together with
        :attr:`SUPPORTS_BATCH_KERNEL`.
        """
        writable = member & ((states == STATE_EXCLUSIVE) | (states == STATE_MODIFIED))
        readable = member & (states != 0) & (states != STATE_UPDATE)
        hot = np.where(kinds == KIND_LOAD, readable, writable)
        commutative = kinds >= KIND_COMMUTATIVE
        if self.HOT_COMMUTATIVE == "never":
            hot &= ~commutative
        elif self.HOT_COMMUTATIVE == "local":
            update_ok = (
                member
                & (states == STATE_UPDATE)
                & (uops != UOP_NONE)
                & (uops == op_index)
            )
            hot |= commutative & update_ok
        return hot

    def finalize(self) -> None:
        """Flush protocol state at the end of a run.

        MEUSI overrides this to reduce any outstanding update-only lines so
        that the functional memory image reflects all buffered deltas.
        """

    def _private_level(self, core_id: int, line_addr: int) -> int:
        """Private L1/L2 lookup with both probes inlined (hot path).

        Performs the same hit/miss counting and LRU refresh as
        :meth:`SetAssociativeCache.lookup` on the L1 and then the L2, and
        refills the L1 on an L2 hit, without any intermediate calls.
        Returns 1 (L1 hit), 2 (L2 hit), or 0 (miss).  The one private probe:
        :meth:`make_step` calls it when a hit is possible, and every
        engine's ``resolve_slow`` for accesses the step did not probe.
        """
        l1 = self._l1_caches[core_id]
        cache_set = l1._sets.get(line_addr % l1._num_sets)
        if cache_set is not None and cache_set.pop(line_addr, None) is not None:
            cache_set[line_addr] = True
            l1.hits += 1
            return 1
        l1.misses += 1
        l2 = self._l2_caches[core_id]
        cache_set = l2._sets.get(line_addr % l2._num_sets)
        if cache_set is not None and cache_set.pop(line_addr, None) is not None:
            cache_set[line_addr] = True
            l2.hits += 1
            l1.insert(line_addr)
            return 2
        l2.misses += 1
        return 0

    # -- shared latency helpers -------------------------------------------------

    def line_addr(self, byte_addr: int) -> int:
        return self.config.line_address(byte_addr)

    def home_l4_chip(self, line_addr: int) -> int:
        return line_addr % self._n_l4_chips

    def reduction_unit_for_l3(self, chip: int, line_addr: int) -> ReductionUnit:
        return self.l3_reduction_units[(chip, self.config.l3_home_bank(line_addr))]

    def reduction_unit_for_l4(self, line_addr: int) -> ReductionUnit:
        chip = self.home_l4_chip(line_addr)
        bank = line_addr % self.config.l4.banks
        return self.l4_reduction_units[(chip, bank)]
