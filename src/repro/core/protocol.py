"""Abstract coherence protocol interface used by the timing simulator.

A protocol engine owns all coherence state for one simulation run: per-core
private line states, directory entries, reduction units, and the functional
memory image used to check results.  The simulator hands it one access at a
time (in global-time order); the engine charges the access's critical-path
latency, broken down by level, to the issuing core's
:class:`~repro.sim.stats.LatencyBreakdown` and returns the total, recording
the traffic generated and the coherence actions taken along the way.  The
public :meth:`CoherenceProtocol.access` API wraps one access in an
:class:`AccessOutcome` for tests and interactive use.

Protocol engines resolve each access atomically against *stable* states; the
transient-state machinery needed for correctness on an unordered network is
modelled and verified separately in :mod:`repro.verification`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro import obs as _obs
from repro.core.commutative import CommutativeOp
from repro.core.directory import Directory
from repro.core.reduction import ReductionUnit
from repro.hierarchy.system import CacheHierarchy
from repro.interconnect.messages import MessageType
from repro.interconnect.network import InterconnectModel
from repro.sim.access import AccessType, MemoryAccess
from repro.sim.config import SystemConfig
from repro.sim.stats import LatencyBreakdown

#: :attr:`CoherenceProtocol.SLOW_SHAPE_TABLE` codes.  ``SHAPE_FAST`` marks a
#: (mode, kind) pair the engine retires through its flattened group path;
#: ``SHAPE_OP_DEPENDENT`` marks a pair that is fast only when the access's op
#: matches the directory entry's op (COUP's same-op U-line joins); and
#: ``SHAPE_CONFLICT`` marks a true conflict (ownership hand-offs the engine
#: declines, cross-op serialization, reduction triggers) that must fall back
#: to the exact scalar ``(clock, core_id)`` order through ``resolve_slow``.
SHAPE_FAST = 0
SHAPE_OP_DEPENDENT = 1
SHAPE_CONFLICT = 2


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

    #: Whether the timing simulator may resolve private hits against this
    #: engine's tables inline (see :meth:`resolve_slow` for the contract).
    SUPPORTS_INLINE_FAST_PATH: bool = False

    #: Whether the batched columnar kernel (:mod:`repro.sim.kernel`) may
    #: classify whole chunks of accesses against this engine's tables via
    #: :meth:`hot_mask` and advance hit-runs without per-access protocol
    #: calls.  Requires :attr:`SUPPORTS_INLINE_FAST_PATH` (the kernel drops
    #: into the same inline/`resolve_slow` machinery at run boundaries).
    SUPPORTS_BATCH_KERNEL: bool = False

    #: How the hot path treats commutative/remote updates: ``"atomic"`` folds
    #: them into atomic read-modify-writes (MESI), ``"local"`` applies COUP's
    #: update-only rules (MEUSI), ``"never"`` forces the slow path (RMO).
    HOT_COMMUTATIVE: str = "atomic"

    #: Whether the batched kernel's group-retirement stage may hand this
    #: engine stretches of consecutive pending slow accesses via
    #: :meth:`resolve_slow_batch`.  Engines that set this True MUST implement
    #: :meth:`resolve_slow_batch`; engines that leave it False must not
    #: (repro-lint P202 checks the flag <=> method-presence contract).
    SUPPORTS_SLOW_BATCH: bool = False

    #: Independence classification of (directory mode, access kind) pairs for
    #: the group-retirement stage, as a 4x5 table of :data:`SHAPE_FAST` /
    #: :data:`SHAPE_OP_DEPENDENT` / :data:`SHAPE_CONFLICT` codes indexed by
    #: :data:`repro.core.directory.MODE_UNCACHED`-family mode codes and
    #: :data:`repro.sim.columnar.CODE_KIND` kinds.  Engines that participate
    #: override this with their protocol's table; the base marks everything
    #: a conflict (nothing may be group-retired).
    SLOW_SHAPE_TABLE: np.ndarray = np.full((4, 5), 2, dtype=np.uint8)

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

    def _write_word(self, address: int, value) -> None:
        if self.track_values and value is not None:
            self.memory_image[address] = value

    def _apply_update(self, address: int, op: CommutativeOp, value) -> None:
        if not self.track_values or value is None:
            return
        current = self.memory_image.get(address, op.identity if address not in self.memory_image else 0)
        if address not in self.memory_image:
            current = 0 if op.identity == 0 or isinstance(op.identity, float) else op.identity
        self.memory_image[address] = op.apply(current, value)

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

        The public one-access API: runs :meth:`access_hot` against a fresh
        :class:`LatencyBreakdown` and describes the result as an
        :class:`AccessOutcome`.  ``invalidations`` counts the caches the
        access invalidated or downgraded (from the engine's aggregate
        statistics) and ``value`` is the word's value after the access for
        loads, and for atomics an engine executes as read-modify-writes.
        """
        latency = LatencyBreakdown()
        invalidations = self.stat_invalidations
        downgrades = self.stat_downgrades
        reductions = self.stat_full_reductions
        level = self.access_hot(core_id, access, now, latency)
        private_hit = level.__class__ is int
        if private_hit:
            latency.l1 += self._l1_latency
            if level == 2:
                latency.l2 += self._l2_latency
        access_type = access.access_type
        returns_value = self.track_values and access_type is not AccessType.STORE and (
            self.HOT_COMMUTATIVE == "atomic" or not access_type.is_commutative
        )
        return AccessOutcome(
            latency=latency,
            value=self.memory_image.get(access.address, 0) if returns_value else None,
            private_hit=private_hit,
            invalidations=max(
                self.stat_invalidations - invalidations,
                self.stat_downgrades - downgrades,
            ),
            full_reduction=self.stat_full_reductions > reductions,
        )

    @abc.abstractmethod
    def access_hot(
        self, core_id: int, access: MemoryAccess, now: float, latency: LatencyBreakdown
    ):
        """Per-access entry point for engines without the inline fast path.

        Returns ``1`` (L1 private hit) or ``2`` (L2 private hit) when the
        access was satisfied entirely within the core's private hierarchy —
        all protocol state, functional values, and cache statistics already
        updated — leaving the caller to charge the fixed private-hit latency.
        Any access that needs directory or transaction machinery is resolved
        through :meth:`resolve_slow`, which charges ``latency`` and returns
        the total as a float.
        """

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
        """Resolve an access the simulator's inline fast path rejected.

        When :attr:`SUPPORTS_INLINE_FAST_PATH` is true, the timing simulator
        replicates the private-hit rules against this engine's tables
        (``core_states``, the private cache arrays, and for MEUSI the
        directory's update-only entries) and only calls this method for
        accesses that need transaction machinery.  ``state`` is the core's
        stable state for the line (``None`` if untracked) and ``level`` is
        the private-lookup result if the simulator already probed the
        caches — or ``None`` if it did not, in which case the probe must
        happen here so lookup statistics and LRU state advance exactly once
        per access.

        Scalar-return contract: the engine sums the access's eight latency
        components in locals, adds each once to ``latency`` (the issuing
        core's accumulated :class:`LatencyBreakdown`) in field order —
        ``l1``, ``l2``, ``l3``, ``offchip_network``, ``l4``,
        ``l4_invalidations``, ``main_memory``, ``serialization`` — and
        returns their total, summed in the same order, as a float.  Nothing
        is allocated per access; the caller charges the total to the core's
        clock and memory cycles.
        """
        raise NotImplementedError

    def slow_batch_ready(self) -> bool:
        """Whether group retirement may run for this engine *this run*.

        :attr:`SUPPORTS_SLOW_BATCH` is the static participation flag; this is
        the per-run precondition.  The flattened retirement paths replicate
        the contention-free latency tables, so a run with the interconnect
        contention model enabled (epoch state mutated per off-chip hook call)
        must take the scalar ``resolve_slow`` path for every slow access.

        Engines that set :attr:`SUPPORTS_SLOW_BATCH` implement
        ``resolve_slow_batch(slot_cores, slot_codes, slot_addrs, slot_gaps,
        slot_deltas, slot_cursor, slot_limit, slot_clock, slot_stats,
        slot_dirty, streak_cap, max_retire)``: a k-way merge over one slot
        per runnable core (raw column objects plus a cursor/limit/clock
        triple each) that retires accesses in the **canonical order** — the
        exact ascending ``(clock, core id)`` order of the scalar scheduler's
        heap — until every live slot is *parked* on a conflict-shaped access
        and the earliest parked event is next in that order, or a cap trips
        (``streak_cap`` consecutive private hits, ``max_retire`` total).
        Parking happens *before* any mutation for the parked access.  The
        engine writes retired cursors/clocks back into the slot lists, sets
        ``slot_dirty[s]`` for any slot whose private-cache **membership**
        changed (fills, evictions, promotions — L1-hit LRU refreshes do not
        count), and returns ``(retired, n_slow, n_parked)``.  Every retired
        access must be bit-identical — same statistics, directory/cache
        mutations, traffic, and functional values — to what the scalar
        loop's probe + ``resolve_slow`` sequence would have produced at the
        same position, and touched (core, line) pairs must be reported
        through :attr:`touched_cores` exactly as the scalar path does.
        """
        return self.SUPPORTS_SLOW_BATCH and self.interconnect.contention is None

    def hot_mask(
        self,
        kinds: np.ndarray,
        member: np.ndarray,
        states: np.ndarray,
        uops: Optional[np.ndarray],
        op_index: np.ndarray,
    ) -> np.ndarray:
        """Vectorized twin of the inline private-hit rules (batch contract).

        Given one chunk of a core's columnar trace, return a boolean array
        marking the accesses the engine would satisfy entirely within the
        core's private L1 with **no** protocol action — exactly the accesses
        the simulator's inline fast path resolves without calling
        :meth:`resolve_slow`.  Inputs are parallel arrays over the chunk:

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
        same switch the inline path uses, so the MESI family shares it:
        loads hit on S/E/M, stores and atomics on E/M, and commutative or
        remote updates follow the engine's folding rule.  MEUSI's
        update-state lines classify hot only for matching-op buffering;
        everything touching reduction units classifies slow.  Engines with
        different stable-state semantics must override this together with
        :attr:`SUPPORTS_BATCH_KERNEL`.
        """
        from repro.hierarchy.cache import (
            STATE_EXCLUSIVE,
            STATE_MODIFIED,
            STATE_UPDATE,
            UOP_NONE,
        )
        from repro.sim.columnar import KIND_LOAD, KIND_COMMUTATIVE

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
        """Private L1/L2 lookup with the L1 probe inlined (hot path).

        Behaviourally identical to
        :meth:`repro.hierarchy.system.CacheHierarchy.private_lookup_level`
        (same hit/miss counters, same LRU refresh, same L1 refill on an L2
        hit) but with the overwhelmingly common L1 hit resolved without any
        intermediate calls.  Returns 1 (L1 hit), 2 (L2 hit), or 0 (miss).

        WARNING: this probe is intentionally hand-duplicated for speed.  The
        copies are:

        * here (also called by every engine's ``resolve_slow`` and by the
          group-retirement merge for accesses nobody probed yet);
        * ``CacheHierarchy.private_lookup_level``;
        * the inline blocks in ``MulticoreSimulator.run`` and
          ``MulticoreSimulator._run_columnar_scalar``;
        * ``BatchedKernel._execute_one``;
        * the hit probe in ``MesiProtocol.resolve_slow_batch``.

        Any change to probe semantics must be applied to all of them; the
        golden-equivalence suite (tests/sim/test_golden_equivalence.py)
        catches divergence.
        """
        l1 = self._l1_caches[core_id]
        cache_set = l1._sets.get(line_addr % l1._num_sets)
        info = cache_set.get(line_addr) if cache_set is not None else None
        if info is not None:
            l1.hits += 1
            l1._tick = tick = l1._tick + 1
            info.last_use = tick
            return 1
        l1.misses += 1
        l2 = self._l2_caches[core_id]
        cache_set = l2._sets.get(line_addr % l2._num_sets)
        info = cache_set.get(line_addr) if cache_set is not None else None
        if info is not None:
            l2.hits += 1
            l2._tick = tick = l2._tick + 1
            info.last_use = tick
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
