"""Batched columnar simulation kernel: vectorized hit-run scanning.

The scalar columnar loop (:meth:`MulticoreSimulator._run_columnar_scalar`)
interprets one access per Python iteration, even though on hit-friendly
workloads the overwhelming majority of accesses are private L1 hits that
change no coherence state visible to any other core.  This kernel removes
the interpreter from that common case:

* Each core's private L1 residency and stable states are mirrored into flat
  NumPy arrays (:class:`~repro.hierarchy.cache.TagArray`), kept coherent
  with the object caches only at slow-path boundaries.
* Per chunk of the columnar trace (a window of up to ``REPRO_BATCH_SIZE``
  accesses), the "is this a private L1 hit in a stable state?" predicate is
  evaluated for the whole chunk at once against the tag mirror
  (:meth:`CoherenceProtocol.hot_mask`).  The resulting mask is *reused*
  across the slow accesses inside the window: after a coherence action the
  executing core lazily re-evaluates just the entries its next runs consume
  (a clean-watermark, amortized O(1) per access), and touched cores repair
  exactly their touched line's occurrences — so classification cost
  amortizes over the window even when hit-runs are short.
* A *hit-run* — a maximal hot prefix of the mask — is advanced with O(1)
  Python work: clocks, compute/memory cycles, latency, per-type counters,
  and LRU order are all computed with NumPy reductions over the run.  The
  first non-hit drops into the same inline-probe / :meth:`resolve_slow`
  machinery the scalar loop uses.

Bit-identity
------------

Results are bit-identical to the scalar loop (pinned by the golden
fingerprints and the batch-boundary grids in ``tests/sim/``), which rests on
three invariants:

1. **Hits commute across cores.**  A private L1 hit touches only per-core
   state (the core's clock, statistics, cache LRU, its own line states and
   delta buffers) plus per-address functional values that no other core can
   concurrently touch: a line written on the hit path is held in E/M (or
   buffered in U), so any other core's access to it must first take the
   globally ordered slow path.  Reordering hit-runs of *different* cores is
   therefore unobservable.  (Two deliberate guards keep the observable dict
   orders pinned: ``SimulationResult.to_jsonable`` emits ``final_values``
   sorted, and a U-state update whose delta buffer does not exist yet
   classifies slow — see :meth:`MeusiProtocol.batch_uop_code`.)
2. **Slow accesses are executed in exact scalar order.**  The scheduler
   replays the scalar loop's ``(clock, core_id)`` heap order for every
   potentially-slow access: before a slow access executes at priority
   ``(t, c)``, every other core has been advanced through exactly those hits
   whose heap priority precedes ``(t, c)``, and through no more.  A core's
   first *possible* slow access is known from its classified hit-run, which
   is what bounds how far other cores may run ahead.
3. **Float arithmetic replays the scalar op sequence.**  When every timing
   constant (CPI, issue overheads, L1 latency) is a dyadic rational with at
   most 8 fractional bits — true for every shipped configuration — all the
   scalar loop's partial sums are exact in float64 (non-negative addends,
   magnitudes capped by a runtime guard), so order of summation cannot
   change a single bit and closed-form NumPy reductions are used.  Any
   other configuration, or a run that exceeds the magnitude guard, uses the
   fold pipeline instead: ``np.cumsum`` (strictly sequential accumulation)
   over the same per-access addend sequence the scalar loop folds, which
   reproduces every partial sum bit-for-bit unconditionally.

Fallback
--------

The kernel handles engines that opt in via
:attr:`CoherenceProtocol.SUPPORTS_BATCH_KERNEL`; everything else uses the
scalar loop.  ``REPRO_SIM_KERNEL`` selects ``auto`` (default), ``batch``
(always batch), or ``scalar`` (never batch).  In ``auto`` the kernel and the
scalar loop alternate on identical state: the kernel measures itself per
probation interval and bails out when a stretch of the workload is too
slow-path-heavy to batch, and the scalar loop hands hot stretches (long
global hit streaks) back — see ``MulticoreSimulator._run_columnar``.
``REPRO_BATCH_SIZE`` bounds the classification window.
"""

from __future__ import annotations

import os
import time
from typing import List, Optional, Tuple

import numpy as np

from repro.core.directory import DirectoryArray
from repro.core.protocol import SHAPE_CONFLICT, SHAPE_OP_DEPENDENT
from repro.core.states import StableState
from repro.hierarchy.cache import (
    STATE_ABSENT,
    STATE_EXCLUSIVE,
    STATE_MODIFIED,
    STATE_SHARED,
    STATE_UPDATE,
    TAG_EMPTY,
    TagArray,
    UOP_NONE,
)
from repro import obs as _obs
from repro.sim.access import MemoryAccess
from repro.sim.columnar import (
    CODE_ACCESS_TYPE,
    CODE_KIND,
    CODE_OP,
    CODE_OP_INDEX,
    CODE_SIZE,
    CODE_VALUE_KIND,
    ColumnarTrace,
    KIND_LOAD,
    KIND_STORE,
    decode_value,
    decode_values,
)
from repro.sim.stats import CoreStats

#: StableState -> TagArray state code (None covers untracked lines).
_STATE_CODE = {
    None: STATE_ABSENT,
    StableState.INVALID: STATE_ABSENT,
    StableState.SHARED: STATE_SHARED,
    StableState.EXCLUSIVE: STATE_EXCLUSIVE,
    StableState.MODIFIED: STATE_MODIFIED,
    StableState.UPDATE: STATE_UPDATE,
}

#: Python-level twin of the NumPy kind table, for the one-access-at-a-time
#: boundary path (indexing a tuple beats indexing a NumPy array from Python).
_KIND_OF_CODE = tuple(int(kind) for kind in CODE_KIND)

#: Default upper bound on the classification window (accesses per chunk).
DEFAULT_BATCH_SIZE = 4096
#: Windows start here and double every time one is consumed fully hot.
MIN_WINDOW = 64

#: Closed-form reductions require every partial sum to stay exactly
#: representable: addends are non-negative dyadic rationals with <= 8
#: fractional bits, so sums are exact while below 2**53 / 2**8 = 2**45.
#: The guard trips well before that.
_EXACT_CLOCK_LIMIT = float(1 << 44)

#: Bail-out probation: every ``BAIL_INTERVAL`` slow accesses the kernel
#: compares its measured wall-clock for the interval against a conservative
#: estimate of what the scalar loop would have spent on the same work
#: (``hits * BAIL_SCALAR_HIT_S + slow * BAIL_SCALAR_SLOW_S``).  Two
#: consecutive intervals slower than the estimate (by ``BAIL_MARGIN``) hand
#: the run off to the scalar loop.  Judging per interval — not cumulatively
#: — lets workloads with a miss-heavy warm-up phase reach their hit-run
#: regime instead of being condemned by their first thousand accesses; the
#: scalar cost constants are deliberately rough (the decision margins are
#: large: the kernel is either several times faster or clearly losing).
BAIL_INTERVAL = 64
BAIL_SCALAR_HIT_S = 1.2e-6
BAIL_SCALAR_SLOW_S = 12e-6
BAIL_MARGIN = 1.15
BAIL_STRIKES = 2

#: The very first probation check of a stint fires after this many slow
#: events instead of a full ``BAIL_INTERVAL``: a stint entering a
#: conflict-dense stretch (group retirement's entry gate failing, every
#: boundary access paying full mask-repair cost) should hand off after a
#: handful of events, not sixty-four of them.  A productive group-retirement
#: call resets probation to the full interval, so healthy stints are never
#: judged on the short window.
BAIL_PROBE = 16

#: The scalar-cost constants above were calibrated on one machine; a host
#: whose interpreter is uniformly slower runs both loops slower, which would
#: otherwise make the kernel look like it is losing and bail spuriously.
#: A tiny dict/int workout — the scalar loop's op mix — measured once per
#: process rescales the estimate to the host (clamped to a sane range).
_CALIBRATION_NOMINAL_S = 0.009
_calibration_factor: Optional[float] = None


def _interpreter_speed_factor() -> float:
    global _calibration_factor
    if _calibration_factor is None:
        # repro-lint: disable=D103(calibration for the bail heuristic; feeds only kernel-vs-scalar dispatch whose outcomes are bit-identical)
        start = time.perf_counter()
        scratch: dict = {}
        x = 0
        for i in range(50_000):
            scratch[i & 1023] = x
            x += scratch.get(i & 511, 0) & 7
        # repro-lint: disable=D103(calibration for the bail heuristic; feeds only kernel-vs-scalar dispatch whose outcomes are bit-identical)
        elapsed = time.perf_counter() - start
        _calibration_factor = min(8.0, max(0.25, elapsed / _CALIBRATION_NOMINAL_S))
    return _calibration_factor
#: An interval this much over the scalar estimate bails without a second
#: strike — the kernel is clearly losing, and on short traces every wasted
#: interval is a measurable fraction of the run.
BAIL_HARD_MARGIN = 2.5

_VALID_MODES = ("auto", "batch", "scalar")


def kernel_mode() -> str:
    """Kernel selection from ``REPRO_SIM_KERNEL`` (``auto`` when unset)."""
    mode = os.environ.get("REPRO_SIM_KERNEL", "auto").strip().lower()
    return mode if mode in _VALID_MODES else "auto"


def batch_size() -> int:
    """Classification-window bound from ``REPRO_BATCH_SIZE`` (min 1)."""
    try:
        size = int(os.environ.get("REPRO_BATCH_SIZE", DEFAULT_BATCH_SIZE))
    except ValueError:
        return DEFAULT_BATCH_SIZE
    return max(1, size)


_SLOW_BATCH_MODES = ("auto", "off")

#: Minimum number of *independence-classified* parked slow events (the best
#: event plus at least one other) before the group-retirement merge is
#: entered; with a single pending event the scalar boundary path is already
#: optimal and the merge's per-call setup would be pure overhead.
FLEET_MIN_PARKED = 2

#: Consecutive hit retirements after which the merge returns (scaled up with
#: the slot count): hit-dense stretches belong to the vectorized window
#: pipeline, which retires them an order of magnitude faster than the
#: merge's inline probe.
FLEET_STREAK_BASE = 64

#: Upper bound on one merge call, so the kernel's bail heuristic keeps
#: sampling wall-clock at a bounded period.
FLEET_MAX_RETIRE = 65536

#: Slow events per participating slot a merge call must retire to count as
#: productive.  An unproductive call (hit-dense or conflict-dense stretch)
#: starts a cooldown — the merge is not attempted again for the next
#: ``_fleet_backoff`` slow events — and the backoff doubles up to
#: :data:`FLEET_COOLDOWN_MAX` while calls stay unproductive, so a workload
#: phase the merge cannot help costs a geometrically vanishing overhead.
FLEET_MIN_YIELD = 4
FLEET_COOLDOWN = 64
FLEET_COOLDOWN_MAX = 4096

#: Cooldown after the vectorized entry gate predicts a conflict.  The gate
#: itself is a few microseconds of numpy, so unlike a wasted engine call it
#: earns only a small flat cooldown: conflict predictions are transient
#: (one reduction, one cross-op stretch) and backing off exponentially was
#: measured to starve the merge on workloads that alternate regimes.
FLEET_GATE_COOLDOWN = 8


def slow_batch_mode() -> str:
    """Group retirement from ``REPRO_SLOW_BATCH`` (``auto`` when unset).

    ``auto`` retires independent slow accesses in groups via
    :meth:`CoherenceProtocol.resolve_slow_batch` whenever the engine declares
    support; ``off`` forces the exact one-at-a-time boundary path.  Both are
    bit-identical — the switch exists for A/B timing and debugging.
    """
    mode = os.environ.get("REPRO_SLOW_BATCH", "auto").strip().lower()
    return mode if mode in _SLOW_BATCH_MODES else "auto"


def _dyadic(value: float, bits: int = 8) -> bool:
    """Whether ``value`` is a non-negative multiple of ``2**-bits``."""
    return value >= 0 and float(value * (1 << bits)).is_integer()


class _BatchCore:
    """Per-core cursor plus the current window's classification state."""

    __slots__ = (
        "core_id",
        "clock",
        "next_index",
        "phase",
        "trace_len",
        "limit",
        "at_barrier",
        "done",
        "tags",
        "stale",
        "class_valid",
        "window",
        # -- classified window (mask pipeline; None when absent) --------------
        "win_start",
        "win_len",
        "win_lines",
        "win_sets",
        "win_kinds",
        "win_states",
        "win_codes",
        "win_addrs",
        "win_t",
        "win_addends",
        "mask",
        "cold_idx",
        "clean_hi",
        # -- current hit-run ---------------------------------------------------
        "run_off",
        "hot_len",
        "applied",
        "end_reason",  # "slow" | "window" | "limit"
        "slow_priority",
        "pop_clocks",
        "end_clocks",
        "cc_fold",
        "mc_fold",
        "l1_fold",
        "cnt_folds",
        "values",
    )

    def __init__(self, core_id: int, trace_len: int, l1_config) -> None:
        self.core_id = core_id
        self.clock = 0.0
        self.next_index = 0
        self.phase = 0
        self.trace_len = trace_len
        self.limit = trace_len
        self.at_barrier = False
        self.done = False
        self.tags = TagArray(l1_config)
        self.stale = True
        self.class_valid = False
        self.window = MIN_WINDOW
        self.win_start = 0
        self.win_len = 0
        self.win_lines = None
        self.win_sets = None
        self.win_kinds = None
        self.win_states = None
        self.win_codes = None
        self.win_addrs = None
        self.win_t = None
        self.win_addends = None
        self.mask = None
        self.cold_idx = None
        self.clean_hi = 0
        self.run_off = 0
        self.hot_len = 0
        self.applied = 0
        self.end_reason = "limit"
        self.slow_priority = 0.0
        self.pop_clocks = None
        self.end_clocks = None
        self.cc_fold = None
        self.mc_fold = None
        self.l1_fold = None
        self.cnt_folds = None
        self.values = None


class BatchedKernel:
    """One batched simulation of a :class:`ColumnarTrace`.

    Construct with the owning :class:`MulticoreSimulator` and the trace, call
    :meth:`run`; ``None`` means the simulation completed (final cursors and
    statistics are on the kernel), otherwise the returned handoff resumes the
    scalar loop mid-run (see :meth:`MulticoreSimulator._run_columnar_scalar`).
    """

    __slots__ = (
        "simulator",
        "workload",
        "force",
        "protocol",
        "columns",
        "codes_col",
        "addrs_col",
        "gaps_col",
        "deltas_col",
        "n_cores",
        "core_stats",
        "phase_boundaries",
        "n_phases",
        "cores",
        "_cpi",
        "_atomic_overhead",
        "_commutative_overhead",
        "_l1_latency",
        "_l2_latency",
        "_l1_hit_total",
        "_l2_hit_total",
        "_overhead_by_kind",
        "_line_shift",
        "_shift_u64",
        "_l1_num_sets",
        "_nsets_u64",
        "_core_states",
        "_l1_caches",
        "_l2_caches",
        "_directory_entries",
        "_track_values",
        "_memory_image",
        "_comm_local",
        "_comm_never",
        "_resolve_slow",
        "_slow_batch",
        "_resolve_slow_batch",
        "_shape_table",
        "_dir_array",
        "_dir_stale",
        "_fleet_cooldown",
        "_fleet_backoff",
        "_max_window",
        "_min_window",
        "_exact",
        "_touched",
        "_slow_events",
        "_hits_batched",
        "_bail_next",
        "_bail_hits_mark",
        "_bail_slow_mark",
        "_bail_time_mark",
        "_bail_strikes",
        "_obs",
        "_obs_timing",
    )

    def __init__(
        self,
        simulator,
        workload: ColumnarTrace,
        *,
        force: bool = False,
        resume: Optional[Tuple] = None,
    ) -> None:
        self.simulator = simulator
        self.workload = workload
        self.force = force

        config = simulator.config
        protocol = simulator.protocol
        self.protocol = protocol
        self.columns = workload.columns
        self.codes_col = [column["type_code"] for column in workload.columns]
        self.addrs_col = [column["address"] for column in workload.columns]
        self.gaps_col = [column["compute_gap"] for column in workload.columns]
        self.deltas_col = [column["value_delta"] for column in workload.columns]

        n_cores = workload.n_cores
        self.n_cores = n_cores
        self.core_stats = [CoreStats(core_id=i) for i in range(n_cores)]
        self.phase_boundaries = workload.phase_boundaries or []
        self.n_phases = len(self.phase_boundaries)
        self.cores = [
            _BatchCore(i, len(workload.columns[i]), config.l1d) for i in range(n_cores)
        ]
        if resume is not None:
            # Mid-run re-entry from the scalar loop (see _run_columnar): the
            # handoff state is exactly what _handoff produces, so the two
            # loops can alternate without losing a single access.
            cursor_state, resumed_stats, heap_entries, barrier_ids = resume
            self.core_stats = resumed_stats
            waiting = set(barrier_ids)
            runnable_ids = {core_id for _, core_id in heap_entries}
            for core, (clock, next_index, phase) in zip(self.cores, cursor_state):
                core.clock = clock
                core.next_index = next_index
                core.phase = phase
                if core.core_id in waiting:
                    core.at_barrier = True
                elif core.core_id not in runnable_ids:
                    core.done = True
        for core in self.cores:
            self._update_limit(core)

        # -- hoisted constants (mirrors the scalar loop's hoists) --------------
        core_model = simulator.core_model
        self._cpi = core_model.cycles_per_instruction
        self._atomic_overhead = core_model.atomic_overhead
        self._commutative_overhead = core_model.commutative_overhead
        self._l1_latency = config.l1d.latency
        self._l2_latency = config.l2.latency
        self._l1_hit_total = self._l1_latency + 0.0
        self._l2_hit_total = self._l1_latency + self._l2_latency + 0.0
        self._overhead_by_kind = np.array(
            [
                0.0,
                0.0,
                self._atomic_overhead,
                self._commutative_overhead,
                self._commutative_overhead,
            ]
        )
        self._line_shift = protocol._line_shift
        self._shift_u64 = np.uint64(self._line_shift)
        self._l1_num_sets = config.l1d.num_sets
        self._nsets_u64 = np.uint64(self._l1_num_sets)

        self._core_states = protocol.core_states
        self._l1_caches = protocol._l1_caches
        self._l2_caches = protocol._l2_caches
        self._directory_entries = protocol.directory._entries
        self._track_values = protocol.track_values
        self._memory_image = protocol.memory_image
        self._comm_local = protocol.HOT_COMMUTATIVE == "local"
        self._comm_never = protocol.HOT_COMMUTATIVE == "never"
        self._resolve_slow = protocol.resolve_slow

        # Group retirement (slow-path batching): engines that declare
        # independence-classified transaction shapes retire whole stretches
        # of the simulation — all runnable cores merged in exact
        # (clock, core_id) heap order — in one flattened call, with the
        # vectorized directory mirror gating entry (see _retire_fleet).
        self._slow_batch = slow_batch_mode() != "off" and protocol.slow_batch_ready()
        if self._slow_batch:
            protocol.slow_batch_begin(
                self._cpi, self._atomic_overhead, self._commutative_overhead
            )
            self._resolve_slow_batch = protocol.resolve_slow_batch
            self._shape_table = protocol.SLOW_SHAPE_TABLE
            self._dir_array = DirectoryArray(n_cores)
        else:
            self._resolve_slow_batch = None
            self._shape_table = None
            self._dir_array = None
        self._dir_stale: set = set()
        self._fleet_cooldown = 0
        self._fleet_backoff = FLEET_COOLDOWN

        self._max_window = batch_size()
        self._min_window = min(MIN_WINDOW, self._max_window)
        for core in self.cores:
            core.window = self._min_window

        #: Whether closed-form reductions are exact for this configuration
        #: (see the module docstring); checked per run against the magnitude
        #: guard and demoted permanently if it ever trips.
        self._exact = all(
            _dyadic(value)
            for value in (
                self._cpi,
                self._atomic_overhead,
                self._commutative_overhead,
                float(self._l1_latency),
            )
        )

        # Cross-core invalidation feed: every slow-path _set_state records the
        # (core, line) it touched, so tag mirrors can be repaired in place and
        # classifications invalidated precisely.
        self._touched: set = set()
        protocol.touched_cores = self._touched

        # Bail-out accounting (per-interval wall-clock vs scalar estimate).
        self._slow_events = 0
        self._hits_batched = 0
        self._bail_next = BAIL_PROBE
        self._bail_hits_mark = 0
        self._bail_slow_mark = 0
        # repro-lint: disable=D103(documented bail heuristic; wall time only decides kernel-vs-scalar dispatch, both paths are bit-identical)
        self._bail_time_mark = time.perf_counter()
        self._bail_strikes = 0

        # Telemetry (repro.obs).  Both handles are None when REPRO_OBS=off;
        # every instrumented site below guards on that and sits exclusively
        # on slow paths (stint boundaries, slow-event resolution, merge
        # gates) — never inside _apply's per-access hot loops.  Timing reads
        # route through the registry's clock (the sanctioned wall-clock
        # island); nothing recorded here ever feeds a SimulationResult.
        self._obs = _obs.get_registry()
        self._obs_timing = _obs.timing_registry()
        if self._obs is not None:
            self._obs.inc(
                "kernel.stint.resume" if resume is not None else "kernel.stint.enter"
            )

    # ------------------------------------------------------------ tag mirrors

    def _rebuild_tags(self, core: _BatchCore) -> None:
        """Refill a core's tag mirror from the object L1 (full resync)."""
        core.tags.clear()
        # repro-lint: disable=D102(full resync visits each set exactly once; sets are independent so visit order cannot affect the rebuilt mirror)
        for set_index, cache_set in self._l1_caches[core.core_id]._sets.items():
            if cache_set:
                self._refill_set(core, set_index, cache_set)
        core.stale = False

    def _refill_set(self, core: _BatchCore, set_index: int, cache_set: dict) -> None:
        """Mirror one L1 set's current membership and states."""
        core_id = core.core_id
        tags = core.tags
        states = self._core_states[core_id]
        comm_local = self._comm_local
        protocol = self.protocol
        state_code = _STATE_CODE
        tag_row = tags.tags[set_index]
        state_row = tags.state[set_index]
        uop_row = tags.uop[set_index]
        way = 0
        for line_addr in cache_set:
            code = state_code[states.get(line_addr)]
            tag_row[way] = line_addr
            state_row[way] = code
            if code == STATE_UPDATE and comm_local:
                uop_row[way] = protocol.batch_uop_code(core_id, line_addr)
            else:
                uop_row[way] = UOP_NONE
            way += 1

    def _repair_sets(self, core: _BatchCore, set_indices) -> None:
        """Resync the L1 sets a slow-path action may have rearranged.

        A transaction only moves the executing core's L1 contents in the
        accessed line's set (fills and their silent L1 victims) and in the
        sets of lines whose state it changed (evictions, invalidations —
        all reported via ``touched_cores``), so repairing those sets is a
        full resync at a fraction of a rebuild's cost.
        """
        tags = core.tags
        line_sets = self._l1_caches[core.core_id]._sets
        for set_index in set_indices:
            tags.tags[set_index].fill(TAG_EMPTY)
            tags.state[set_index].fill(STATE_ABSENT)
            tags.uop[set_index].fill(UOP_NONE)
            cache_set = line_sets.get(set_index)
            if cache_set:
                self._refill_set(core, set_index, cache_set)

    # ---------------------------------------------------------- classification

    def _update_limit(self, core: _BatchCore) -> None:
        """Recompute how far the core may run before a barrier or trace end."""
        if core.phase < self.n_phases:
            core.limit = min(
                core.trace_len, self.phase_boundaries[core.phase][core.core_id]
            )
        else:
            core.limit = core.trace_len

    def _compute_window(self, core: _BatchCore) -> None:
        """Slice and pre-digest the next window, then evaluate its hot mask."""
        if core.stale:
            self._rebuild_tags(core)
        core_id = core.core_id
        start = core.next_index
        width = min(core.window, core.limit - start)
        core.win_start = start
        core.win_len = width
        if width <= 0:
            core.mask = None
            return
        codes = self.codes_col[core_id][start : start + width]
        addrs = self.addrs_col[core_id][start : start + width]
        gaps = self.gaps_col[core_id][start : start + width]
        lines = addrs >> self._shift_u64
        kinds = CODE_KIND[codes]
        think = gaps * self._cpi
        t = think + self._overhead_by_kind[kinds]
        core.win_codes = codes
        core.win_addrs = addrs
        core.win_lines = lines
        core.win_sets = lines % self._nsets_u64
        core.win_kinds = kinds
        core.win_t = t
        core.win_addends = t + self._l1_hit_total
        core.win_states = np.empty(width, dtype=np.uint8)
        core.values = None
        self._eval_mask(core, None)
        core.clean_hi = width  # the whole window was just evaluated

    def _eval_mask(self, core: _BatchCore, index: Optional[np.ndarray]) -> None:
        """(Re)evaluate the window's hot mask, fully or at given positions."""
        obs_timing = self._obs_timing
        if obs_timing is not None:
            _obs_t0 = obs_timing.clock()
        tags = core.tags
        if index is None:
            lines = core.win_lines
            sets = core.win_sets
            kinds = core.win_kinds
            codes = core.win_codes
        else:
            lines = core.win_lines[index]
            sets = core.win_sets[index]
            kinds = core.win_kinds[index]
            codes = core.win_codes[index]
        match = tags.tags[sets] == lines[:, None]
        member = match.any(axis=1)
        ways = match.argmax(axis=1)
        states = np.where(member, tags.state[sets, ways], STATE_ABSENT)
        uops = (
            np.where(states == STATE_UPDATE, tags.uop[sets, ways], UOP_NONE)
            if self._comm_local
            else None
        )
        hot = self.protocol.hot_mask(kinds, member, states, uops, CODE_OP_INDEX[codes])
        if index is None:
            core.mask = hot
            core.win_states[:] = states
        else:
            core.mask[index] = hot
            core.win_states[index] = states
        # Entries behind the cursor are consumed and never re-extracted, so
        # the cold-position index only needs the unconsumed tail.
        start = core.next_index - core.win_start
        if start > 0:
            core.cold_idx = np.flatnonzero(~core.mask[start:])
            core.cold_idx += start
        else:
            core.cold_idx = np.flatnonzero(~core.mask)
        if obs_timing is not None:
            obs_timing.observe("eval_mask", obs_timing.clock() - _obs_t0)

    def _clean_prefix(self, core: _BatchCore, offset: int) -> int:
        """Re-evaluate stale entries lazily and return the next run's end.

        Slow-path actions do not touch the window mask eagerly — they repair
        the tag mirror itself (cheap) and lower the core's ``clean_hi``
        watermark to its cursor, marking everything unconsumed as suspect.
        Extraction then re-evaluates exactly the suspect entries the next
        hit-run would consume (including the run-ending entry, which may
        flip hot — e.g. a line that just gained U permission), advancing the
        watermark until the run boundary stabilizes.  Each window entry is
        re-evaluated at most once per disturbance-free stretch before being
        consumed, so cleaning amortizes to O(1) per access no matter how hot
        the disturbed lines are in the rest of the window.
        """
        cold = core.cold_idx
        position = int(np.searchsorted(cold, offset))
        end = int(cold[position]) if position < len(cold) else core.win_len
        if core.clean_hi >= core.win_len:
            return end
        # Exponentially growing chunks: when cleaning flips a chain of
        # entries hot (a line faulted in since the mask was computed), the
        # boundary keeps receding, and chunking caps the number of pipeline
        # invocations at O(log window) while over-cleaning at most as much
        # as the run it exposes.
        chunk = 8
        while True:
            low = max(core.clean_hi, offset)
            bound = min(end + 1, core.win_len)
            if bound <= low:
                break
            bound = min(core.win_len, max(bound, low + chunk))
            self._eval_mask(core, np.arange(low, bound))
            core.clean_hi = bound
            chunk *= 2
            cold = core.cold_idx
            position = int(np.searchsorted(cold, offset))
            end = int(cold[position]) if position < len(cold) else core.win_len
        return end

    def _suspect_mask(self, core: _BatchCore) -> None:
        """Mark the core's unconsumed window entries as needing re-evaluation.

        Used for the core executing a slow access: it always consumes its
        next extracted run in full, so the lazy re-evaluation the watermark
        triggers (:meth:`_clean_prefix`) amortizes to O(1) per access.
        """
        if core.mask is not None:
            core.clean_hi = core.next_index - core.win_start

    def _repair_mask_line(self, core: _BatchCore, line_addr: int) -> None:
        """Re-evaluate another core's window entries for one touched line.

        Touched cores may be mid-run and consume their windows in small
        cuts, so the lazy watermark would re-clean the same entries over
        and over; a targeted repair of just the touched line's occurrences
        is exact (its mirror way was just repaired) and usually a no-op —
        most cross-core touches concern lines outside the window.  It also
        matters for throughput: a MEUSI owner downgraded M->U keeps
        buffering updates to the line locally, so its entries must flip
        back to hot.  If the repair lands inside the currently extracted
        hit-run, the run is re-extracted.
        """
        if core.mask is None:
            return
        index = np.flatnonzero(core.win_lines == line_addr)
        if not index.size:
            return
        keep = index >= core.clean_hi
        if keep.any():
            # Entries past the watermark will be re-evaluated lazily anyway.
            index = index[~keep]
            if not index.size:
                return
        self._eval_mask(core, index)
        if core.class_valid and core.applied < core.hot_len:
            low = core.run_off + core.applied
            high = core.run_off + core.hot_len
            if ((index >= low) & (index < high)).any():
                core.class_valid = False

    def _classify(self, core: _BatchCore) -> None:
        """Extract the next hit-run at the core's cursor (mask pipeline)."""
        offset = core.next_index - core.win_start
        if (
            core.mask is None
            or core.next_index < core.win_start
            or offset >= core.win_len
            or core.stale
        ):
            self._compute_window(core)
            offset = 0
            if core.mask is None:  # at the limit: nothing left to classify
                core.hot_len = 0
                core.applied = 0
                core.run_off = 0
                core.end_reason = "limit"
                core.slow_priority = core.clock
                core.class_valid = True
                return

        obs_timing = self._obs_timing
        if obs_timing is not None:
            _obs_t0 = obs_timing.clock()
            end = self._clean_prefix(core, offset)
            obs_timing.observe("clean_prefix", obs_timing.clock() - _obs_t0)
        else:
            end = self._clean_prefix(core, offset)
        run = end - offset
        core.run_off = offset
        core.hot_len = run
        core.applied = 0
        core.cnt_folds = None  # set only by the sequential-fold pipeline
        core.class_valid = True
        if end < core.win_len:
            core.end_reason = "slow"
        elif core.win_start + core.win_len == core.limit:
            core.end_reason = "limit"
        else:
            core.end_reason = "window"
            # The window was consumed fully hot from this offset: grow the
            # next one so classification amortizes over longer runs.
            core.window = min(core.window * 2, self._max_window)

        if not run:
            core.slow_priority = core.clock
            return

        if self._exact:
            folded = np.cumsum(core.win_addends[offset:end])
            end_clocks = core.clock + folded
            last = float(end_clocks[-1])
            if last < _EXACT_CLOCK_LIMIT:
                pop_clocks = np.empty(run)
                pop_clocks[0] = core.clock
                pop_clocks[1:] = end_clocks[:-1]
                core.end_clocks = end_clocks
                core.pop_clocks = pop_clocks
                core.slow_priority = last
                return
            # Magnitude guard tripped: closed forms are no longer provably
            # exact; demote to the sequential-fold pipeline for good.  Every
            # other core's pending run was classified under the exact regime
            # (no fold arrays), so force those to re-extract too.
            self._exact = False
            for other in self.cores:
                if other is not core:
                    other.class_valid = False
        self._classify_folds(core, offset, end)

    def _classify_folds(self, core: _BatchCore, offset: int, end: int) -> None:
        """Sequential-fold clock/statistic arrays for a non-dyadic config.

        Replays the scalar recurrence
        ``clock = ((clock + think) + overhead) + l1_hit_total``
        as one strictly sequential cumulative sum over the interleaved
        addend sequence (np.cumsum accumulates left to right), and builds
        absolute per-offset values for each statistic the run advances.
        """
        run = end - offset
        core_id = core.core_id
        stats = self.core_stats[core_id]
        kinds_run = core.win_kinds[offset:end]
        think = (
            self.gaps_col[core_id][core.win_start + offset : core.win_start + end]
            * self._cpi
        )
        overhead = self._overhead_by_kind[kinds_run]
        tri = np.empty(3 * run + 1)
        tri[0] = core.clock
        tri[1::3] = think
        tri[2::3] = overhead
        tri[3::3] = self._l1_hit_total
        folded = np.cumsum(tri)
        end_clocks = folded[3::3]
        pop_clocks = np.empty(run)
        pop_clocks[0] = core.clock
        pop_clocks[1:] = end_clocks[:-1]
        core.end_clocks = end_clocks
        core.pop_clocks = pop_clocks
        core.slow_priority = float(end_clocks[-1])
        core.cc_fold = np.cumsum(
            np.concatenate(([stats.compute_cycles], think + overhead))
        )
        core.mc_fold = np.cumsum(
            np.concatenate(([stats.memory_cycles], np.full(run, self._l1_hit_total)))
        )
        core.l1_fold = np.cumsum(
            np.concatenate(([stats.latency.l1], np.full(run, float(self._l1_latency))))
        )
        zero = np.zeros(1, dtype=np.int64)
        core.cnt_folds = [
            np.concatenate((zero, np.cumsum(kinds_run == kind, dtype=np.int64)))
            for kind in range(5)
        ]

    # ------------------------------------------------------------- application

    def _apply(self, core: _BatchCore, cut: int) -> None:
        """Advance the core through hit-run accesses ``[applied, cut)``."""
        begin = core.applied
        if cut <= begin:
            return
        core_id = core.core_id
        stats = self.core_stats[core_id]
        count = cut - begin
        low = core.run_off + begin
        high = core.run_off + cut

        # The fold regime is a per-run property: a run classified under the
        # exact regime has no fold arrays (and its closed forms are valid —
        # its magnitude guard passed), even if the kernel has since demoted
        # to the fold pipeline for future classifications.
        run_exact = core.cnt_folds is None
        if run_exact and count <= 8:
            self._apply_small(core, stats, low, high, count)
            core.clock = float(core.end_clocks[cut - 1])
            core.applied = cut
            core.next_index += count
            self._hits_batched += count
            return

        kinds_seg = core.win_kinds[low:high]
        if run_exact:
            counts = np.bincount(kinds_seg, minlength=5)
            comm_n = int(counts[3])
            remote_n = int(counts[4])
            stats.loads += int(counts[0])
            stats.stores += int(counts[1])
            stats.atomics += int(counts[2])
            stats.commutative_updates += comm_n
            stats.remote_updates += remote_n
            stats.compute_cycles += float(np.sum(core.win_t[low:high]))
            stats.memory_cycles += self._l1_hit_total * count
            stats.latency.l1 += self._l1_latency * count
        else:
            c_load, c_store, c_atomic, c_comm, c_remote = core.cnt_folds
            stats.loads += int(c_load[cut] - c_load[begin])
            stats.stores += int(c_store[cut] - c_store[begin])
            stats.atomics += int(c_atomic[cut] - c_atomic[begin])
            comm_n = int(c_comm[cut] - c_comm[begin])
            remote_n = int(c_remote[cut] - c_remote[begin])
            stats.commutative_updates += comm_n
            stats.remote_updates += remote_n
            stats.compute_cycles = float(core.cc_fold[cut])
            stats.memory_cycles = float(core.mc_fold[cut])
            stats.latency.l1 = float(core.l1_fold[cut])
        stats.accesses += count
        stats.l1_hits += count
        core.clock = float(core.end_clocks[cut - 1])
        if self._comm_local and (comm_n or remote_n):
            self.protocol.stat_local_updates += comm_n + remote_n

        # L1 statistics and LRU: every hit bumps the tick and refreshes the
        # line; after the run each distinct line holds the tick of its last
        # hit, which is what the scalar per-access refresh converges to.
        l1 = self._l1_caches[core_id]
        base_tick = l1._tick
        l1.hits += count
        l1._tick = base_tick + count
        seg_lines = core.win_lines[low:high]
        line_sets = l1._sets
        num_sets = l1._num_sets
        if count <= 64:
            # Short slice: replay the refreshes directly (the last assignment
            # per line wins, exactly as the per-access loop converges).
            tick = base_tick
            for line_addr in seg_lines.tolist():
                tick += 1
                line_sets[line_addr % num_sets][line_addr].last_use = tick
        else:
            distinct, reverse_first = np.unique(seg_lines[::-1], return_index=True)
            last_offsets = (count - 1) - reverse_first
            for line_addr, offset in zip(distinct.tolist(), last_offsets.tolist()):
                line_sets[line_addr % num_sets][line_addr].last_use = (
                    base_tick + offset + 1
                )

        # Write permission upgrades: stores/atomics/folded updates against an
        # E copy leave the line in M (U-state buffering does not).
        states_seg = core.win_states[low:high]
        write_mask = (kinds_seg != KIND_LOAD) & (states_seg != STATE_UPDATE)
        if write_mask.any():
            state_map = self._core_states[core_id]
            modified = StableState.MODIFIED
            for line_addr in np.unique(seg_lines[write_mask]).tolist():
                state_map[line_addr] = modified

        # Functional updates (tracked-value runs only), replaying the scalar
        # per-access dict operations in program order.
        if self._track_values:
            update_offsets = np.flatnonzero(kinds_seg != KIND_LOAD)
            if update_offsets.size:
                if core.values is None:
                    core.values = decode_values(
                        self.columns[core_id][
                            core.win_start : core.win_start + core.win_len
                        ]
                    )
                values = core.values
                lines_win = core.win_lines
                kinds_win = core.win_kinds
                states_win = core.win_states
                codes_win = core.win_codes
                addrs_win = core.win_addrs
                memory_image = self._memory_image
                protocol = self.protocol
                code_op = CODE_OP
                for rel in update_offsets.tolist():
                    j = low + rel
                    value = values[j]
                    if value is None:
                        continue
                    address = int(addrs_win[j])
                    if kinds_win[j] == KIND_STORE:
                        memory_image[address] = value
                    elif states_win[j] == STATE_UPDATE:
                        op = code_op[codes_win[j]]
                        buffer = protocol._buffer_for(core_id, int(lines_win[j]), op)
                        buffer.update(address, value)
                    else:
                        op = code_op[codes_win[j]]
                        if op is not None:
                            current = memory_image.get(address, op.identity)
                            memory_image[address] = op.apply(current, value)

        core.applied = cut
        core.next_index += count
        self._hits_batched += count

    def _apply_small(
        self, core: _BatchCore, stats: CoreStats, low: int, high: int, count: int
    ) -> None:
        """Fused scalar advance for short slices (exact regime only).

        Tight interleaves shatter hit-runs into slices of a few hits; the
        vectorized reductions in :meth:`_apply` cost more than the
        interpreter work they replace there.  Everything folds with scalar
        arithmetic, which is bit-identical because in the exact regime every
        addend is dyadic — grouping cannot change a bit.
        """
        core_id = core.core_id
        kinds_l = core.win_kinds[low:high].tolist()
        lines_l = core.win_lines[low:high].tolist()
        states_l = core.win_states[low:high].tolist()
        l1 = self._l1_caches[core_id]
        tick = l1._tick
        l1.hits += count
        line_sets = l1._sets
        num_sets = l1._num_sets
        state_map = self._core_states[core_id]
        modified = StableState.MODIFIED
        memory_image = self._memory_image
        track = self._track_values
        comm_n = 0
        if track and core.values is None:
            core.values = decode_values(
                self.columns[core_id][core.win_start : core.win_start + core.win_len]
            )
        values = core.values
        for offset in range(count):
            kind = kinds_l[offset]
            line_addr = lines_l[offset]
            tick += 1
            line_sets[line_addr % num_sets][line_addr].last_use = tick
            if kind == 0:
                stats.loads += 1
                continue
            state = states_l[offset]
            if kind == 1:
                stats.stores += 1
            elif kind == 2:
                stats.atomics += 1
            elif kind == 3:
                stats.commutative_updates += 1
                comm_n += 1
            else:
                stats.remote_updates += 1
                comm_n += 1
            if state != STATE_UPDATE:
                state_map[line_addr] = modified
            if track:
                j = low + offset
                value = values[j]
                if value is None:
                    continue
                address = int(core.win_addrs[j])
                if kind == 1:
                    memory_image[address] = value
                elif state == STATE_UPDATE:
                    op = CODE_OP[core.win_codes[j]]
                    self.protocol._buffer_for(core_id, line_addr, op).update(
                        address, value
                    )
                else:
                    op = CODE_OP[core.win_codes[j]]
                    if op is not None:
                        current = memory_image.get(address, op.identity)
                        memory_image[address] = op.apply(current, value)
        l1._tick = tick
        if self._comm_local and comm_n:
            self.protocol.stat_local_updates += comm_n
        stats.compute_cycles += sum(core.win_t[low:high].tolist())
        stats.memory_cycles += self._l1_hit_total * count
        stats.latency.l1 += self._l1_latency * count
        stats.accesses += count
        stats.l1_hits += count

    # ------------------------------------------------------- boundary accesses

    def _execute_one(self, core: _BatchCore) -> None:
        """Interpret the single access that ended a hit-run.

        Line-for-line equivalent to the scalar columnar loop's per-access
        body (inline probe, local resolution, or :meth:`resolve_slow`), plus
        the incremental tag-mirror and hot-mask maintenance the batched
        classification needs.  Any change here must mirror
        :meth:`MulticoreSimulator._run_columnar_scalar`.
        """
        core_id = core.core_id
        index = core.next_index
        code = int(self.codes_col[core_id][index])
        address = int(self.addrs_col[core_id][index])
        gap = float(self.gaps_col[core_id][index])
        core.next_index = index + 1
        core.class_valid = False
        stats = self.core_stats[core_id]
        protocol = self.protocol

        kind = _KIND_OF_CODE[code]
        is_comm = False
        if kind == 0:
            overhead = 0.0
            stats.loads += 1
        elif kind == 1:
            overhead = 0.0
            stats.stores += 1
        elif kind == 2:
            overhead = self._atomic_overhead
            stats.atomics += 1
        elif kind == 3:
            overhead = self._commutative_overhead
            stats.commutative_updates += 1
            is_comm = True
        else:
            overhead = self._commutative_overhead
            stats.remote_updates += 1
            is_comm = True

        think = gap * self._cpi
        issue_time = core.clock + think

        hit_level = 0
        line_addr = address >> self._line_shift
        states = self._core_states[core_id]
        state = states.get(line_addr)
        level = None
        promoted_victim = None
        promoted = False
        if state is not None and (
            (not self._comm_never) if is_comm else (state is not StableState.UPDATE)
        ):
            # Same hand-duplicated private probe as the scalar loops (see the
            # WARNING in CoherenceProtocol._private_level).
            l1 = self._l1_caches[core_id]
            cache_set = l1._sets.get(line_addr % l1._num_sets)
            info = cache_set.get(line_addr) if cache_set is not None else None
            if info is not None:
                l1.hits += 1
                l1._tick = tick = l1._tick + 1
                info.last_use = tick
                level = 1
            else:
                l1.misses += 1
                l2 = self._l2_caches[core_id]
                cache_set = l2._sets.get(line_addr % l2._num_sets)
                info = cache_set.get(line_addr) if cache_set is not None else None
                if info is not None:
                    l2.hits += 1
                    l2._tick = tick = l2._tick + 1
                    info.last_use = tick
                    victim_info = l1.insert(line_addr)
                    promoted = True
                    promoted_victim = (
                        victim_info.line_addr if victim_info is not None else None
                    )
                    level = 2
                else:
                    l2.misses += 1
                    level = 0
            if level:
                if kind == 0:  # LOAD
                    if state is not StableState.UPDATE:
                        hit_level = level
                elif state is StableState.MODIFIED or state is StableState.EXCLUSIVE:
                    states[line_addr] = StableState.MODIFIED
                    if self._track_values:
                        if kind == 1:  # STORE
                            value = decode_value(
                                CODE_VALUE_KIND[code],
                                int(self.deltas_col[core_id][index]),
                            )
                            if value is not None:
                                self._memory_image[address] = value
                        else:
                            protocol._functional_update(
                                self._materialize(core_id, index, code, address, gap)
                            )
                    if is_comm and self._comm_local:
                        protocol.stat_local_updates += 1
                    hit_level = level
                elif state is StableState.UPDATE and is_comm and self._comm_local:
                    entry = self._directory_entries.get(line_addr)
                    op = CODE_OP[code]
                    if op is not None and entry is not None and entry.op is op:
                        if self._track_values:
                            protocol._apply_local_update(
                                core_id,
                                self._materialize(core_id, index, code, address, gap),
                            )
                        protocol.stat_local_updates += 1
                        hit_level = level
        if not hit_level:
            access = self._materialize(core_id, index, code, address, gap)
            touched = self._touched
            touched.clear()
            obs_timing = self._obs_timing
            if obs_timing is not None:
                _obs_t0 = obs_timing.clock()
            latency = self._resolve_slow(
                core_id, access, line_addr, state, level, issue_time, stats.latency
            )
            if obs_timing is not None:
                obs_timing.observe("resolve_slow", obs_timing.clock() - _obs_t0)
                _obs_t0 = obs_timing.clock()
            # Repair the mirrors the transaction may have moved lines in.
            # The executing core's L1 only changes in the accessed line's set
            # (fills and their silent same-set victims) and in the sets of
            # its own touched lines (evictions, partial reductions); other
            # cores only ever *lose* lines or change state on them
            # (invalidations, downgrades) — all reported via _set_state as
            # (core, line) pairs, repaired way-in-place.
            self_sets = {line_addr % self._l1_num_sets}
            if self._slow_batch:
                dir_stale = self._dir_stale
                dir_stale.add(line_addr)
                for _touched_id, touched_line in touched:
                    dir_stale.add(touched_line)
            if touched:
                cores = self.cores
                n_cores = self.n_cores
                core_states = self._core_states
                state_code_of = _STATE_CODE
                for touched_id, touched_line in touched:
                    if touched_id == core_id:
                        self_sets.add(touched_line % self._l1_num_sets)
                        continue
                    if touched_id >= n_cores:
                        continue
                    other = cores[touched_id]
                    if not other.stale:
                        new_code = state_code_of[
                            core_states[touched_id].get(touched_line)
                        ]
                        uop = UOP_NONE
                        if new_code == STATE_UPDATE and self._comm_local:
                            uop = protocol.batch_uop_code(touched_id, touched_line)
                        other.tags.update_line(touched_line, new_code, uop)
                        self._repair_mask_line(other, touched_line)
                    else:
                        other.class_valid = False
                        other.mask = None
                touched.clear()
            if not core.stale:
                self._repair_sets(core, self_sets)
                self._suspect_mask(core)
            if obs_timing is not None:
                obs_timing.observe("mask_repair", obs_timing.clock() - _obs_t0)
        elif not core.stale:
            # Local resolution: keep the tag mirror coherent incrementally.
            if promoted:
                state_code = _STATE_CODE[states.get(line_addr)]
                uop = UOP_NONE
                if state_code == STATE_UPDATE and self._comm_local:
                    uop = protocol.batch_uop_code(core_id, line_addr)
                if core.tags.place(line_addr, state_code, uop, promoted_victim):
                    # The promotion may have silently evicted a same-set L1
                    # victim (it stays in the L2 with its state intact), so
                    # the unconsumed mask entries must re-evaluate.
                    self._suspect_mask(core)
                else:
                    core.stale = True
                    core.mask = None
            elif (
                is_comm and self._comm_local and state is StableState.UPDATE
            ):
                # A first buffered update makes the line batchable: the
                # mirror learns the op and the line's remaining window
                # entries re-evaluate (typically flipping hot).
                core.tags.set_uop(
                    line_addr, protocol.batch_uop_code(core_id, line_addr)
                )
                self._suspect_mask(core)

        if hit_level:
            latency_record = stats.latency
            latency_record.l1 += self._l1_latency
            if hit_level == 1:
                latency = self._l1_hit_total
            else:
                latency_record.l2 += self._l2_latency
                latency = self._l2_hit_total
            stats.l1_hits += 1

        stats.accesses += 1
        stats.compute_cycles += think + overhead
        stats.memory_cycles += latency
        core.clock = issue_time + overhead + latency

    def _materialize(
        self, core_id: int, index: int, code: int, address: int, gap: float
    ) -> MemoryAccess:
        """Build the :class:`MemoryAccess` a protocol call needs (slow path)."""
        access = MemoryAccess.__new__(MemoryAccess)
        access.access_type = CODE_ACCESS_TYPE[code]
        access.address = address
        access.op = CODE_OP[code]
        access.value = decode_value(
            CODE_VALUE_KIND[code], int(self.deltas_col[core_id][index])
        )
        access.think_instructions = int(gap)
        access.size_bytes = CODE_SIZE[code]
        return access

    # --------------------------------------------------------------- scheduler

    def _transition(self, core: _BatchCore) -> None:
        """A core reached its limit: join the phase barrier or finish."""
        core.class_valid = False
        if core.next_index >= core.trace_len and core.phase >= self.n_phases:
            core.done = True
        else:
            core.at_barrier = True

    def _release_barrier(self, waiters: List[_BatchCore]) -> None:
        """Advance every waiting core past the barrier at the barrier time."""
        release_time = max(core.clock for core in waiters)
        for core in waiters:
            core.clock = release_time
            core.phase += 1
            core.at_barrier = False
            core.class_valid = False
            self._update_limit(core)

    def _cut_for(self, core: _BatchCore, best_clock: float, best_id: int) -> int:
        """Number of the core's hit-run accesses ordered before the event.

        Replays the scalar heap's tuple order: a hit popping at ``clock``
        precedes the event at ``(best_clock, best_id)`` iff ``clock <
        best_clock``, or they tie and this core's id is smaller.
        """
        side = "right" if core.core_id < best_id else "left"
        return int(np.searchsorted(core.pop_clocks, best_clock, side=side))

    def run(self) -> Optional[Tuple]:
        """Simulate to completion (``None``) or hand off to the scalar loop."""
        cores = self.cores
        while True:
            runnable = [c for c in cores if not c.done and not c.at_barrier]
            if not runnable:
                waiters = [c for c in cores if c.at_barrier]
                if not waiters:
                    self.protocol.touched_cores = None
                    obs_reg = self._obs
                    if obs_reg is not None:
                        obs_reg.inc("kernel.stint.complete")
                        obs_reg.inc("kernel.slow_events", self._slow_events)
                        obs_reg.inc("kernel.hits_batched", self._hits_batched)
                    return None  # every core finished
                self._release_barrier(waiters)
                continue

            if (
                not self.force
                and self._slow_events >= self._bail_next
                and (not self._slow_batch or self._fleet_cooldown > 0)
            ):
                # Probation is deferred while a group-retirement attempt is
                # pending (cooldown expired): a productive merge vindicates
                # the interval, and judging the stint before the entry gate
                # has even ruled would bail exactly the runs the merge wins.
                # A failed gate or unproductive merge sets a cooldown, so the
                # check resumes on the next iteration for hostile stretches.
                # repro-lint: disable=D103(documented bail heuristic; wall time only decides kernel-vs-scalar dispatch, both paths are bit-identical)
                now = time.perf_counter()
                interval_hits = self._hits_batched - self._bail_hits_mark
                # Group retirement advances _slow_events by whole groups, so
                # the interval can hold more than BAIL_INTERVAL slow events;
                # estimate from the actual count or the comparison is unfair
                # to the kernel exactly when it is winning the most.
                interval_slow = self._slow_events - self._bail_slow_mark
                scalar_estimate = _interpreter_speed_factor() * (
                    interval_hits * BAIL_SCALAR_HIT_S
                    + interval_slow * BAIL_SCALAR_SLOW_S
                )
                elapsed = now - self._bail_time_mark
                if elapsed > scalar_estimate * BAIL_MARGIN:
                    self._bail_strikes += 1
                    if (
                        self._bail_strikes >= BAIL_STRIKES
                        or elapsed > scalar_estimate * BAIL_HARD_MARGIN
                    ):
                        if self._obs is not None:
                            self._obs.inc(
                                "kernel.bail.hard_margin"
                                if elapsed > scalar_estimate * BAIL_HARD_MARGIN
                                else "kernel.bail.strikes"
                            )
                        return self._handoff()
                else:
                    self._bail_strikes = 0
                self._bail_hits_mark = self._hits_batched
                self._bail_slow_mark = self._slow_events
                self._bail_time_mark = now
                self._bail_next = self._slow_events + BAIL_INTERVAL

            for core in runnable:
                if not core.class_valid:
                    self._classify(core)

            # The earliest potentially-slow event, in scalar (clock, id) order.
            best = None
            for core in runnable:
                if core.end_reason == "limit":
                    continue
                if (
                    best is None
                    or core.slow_priority < best.slow_priority
                    or (
                        core.slow_priority == best.slow_priority
                        and core.core_id < best.core_id
                    )
                ):
                    best = core

            if best is None:
                # No pending slow events: every runnable core just drains its
                # hit-run into a barrier or the end of its trace.
                for core in runnable:
                    self._apply(core, core.hot_len)
                    self._transition(core)
                continue

            if best.end_reason == "window":
                # The earliest potential event is only a classification
                # horizon: extend it (nothing executes, so no other core
                # needs to be ordered against it).
                self._apply(best, best.hot_len)
                self._classify(best)
                continue

            # A real slow access at (best_clock, best_id).  If at least one
            # other parked event is independence-classified too, hand the
            # whole fleet of runnable cores to the engine's k-way merge,
            # which replays the exact (clock, core_id) heap order across
            # them in one flattened call (see _retire_fleet).
            if self._slow_batch:
                if self._fleet_cooldown > 0:
                    self._fleet_cooldown -= 1
                    if self._obs is not None:
                        self._obs.inc("kernel.merge.decline.cooldown")
                elif self._retire_fleet(runnable, best):
                    continue

            # Scalar boundary path: advance every other core through exactly
            # the hits that precede the event; a window reload along the way
            # can reveal an even earlier event, in which case restart the
            # selection.
            best_clock = best.slow_priority
            best_id = best.core_id
            earlier_event = False
            for core in runnable:
                if core is best:
                    continue
                while True:
                    applied = core.applied
                    if applied < core.hot_len:
                        # Cheap skip: is the first unapplied hit due at all?
                        first_pop = core.pop_clocks[applied]
                        if first_pop > best_clock or (
                            first_pop == best_clock and core.core_id > best_id
                        ):
                            break
                        self._apply(core, self._cut_for(core, best_clock, best_id))
                        if core.applied < core.hot_len:
                            break  # remaining hits pop after the event
                    if core.end_reason == "window":
                        self._classify(core)
                        continue
                    if core.end_reason == "limit":
                        self._transition(core)
                        break
                    # "slow": this core is parked at its own event.
                    if core.slow_priority < best_clock or (
                        core.slow_priority == best_clock and core.core_id < best_id
                    ):
                        earlier_event = True
                    break
                if earlier_event:
                    break
            if earlier_event:
                continue

            self._apply(best, best.hot_len)
            obs_timing = self._obs_timing
            if obs_timing is not None:
                _obs_t0 = obs_timing.clock()
                self._execute_one(best)
                obs_timing.observe("execute_one", obs_timing.clock() - _obs_t0)
            else:
                self._execute_one(best)
            self._slow_events += 1

    def _retire_fleet(self, runnable: List[_BatchCore], best: _BatchCore) -> bool:
        """Merge-retire every runnable core's pending accesses in one call.

        The scheduler found a real slow event at ``best``; instead of walking
        the boundary one event at a time, hand the whole fleet of runnable
        cores to the engine's ``resolve_slow_batch``, which replays the exact
        scalar ``(clock, core_id)`` heap order across them with a k-way merge
        — bit-identical by construction — and only returns at a true conflict
        boundary (or a hit-streak / retirement cap).  Entry is gated by the
        :class:`DirectoryArray` mirror: the pending parked accesses of all
        slow-parked cores are classified with one vectorized
        ``SLOW_SHAPE_TABLE[mode, kind]`` lookup (plus the op-match rule for
        op-dependent shapes), and the merge is entered only when the best
        event and at least one other parked event classify independent.  The
        mirror is advisory — the engine re-derives every shape from the
        object directory before mutating — so staleness can only cost a
        wasted entry, never exactness.

        Returns ``True`` when the merge retired at least one access (the
        scheduler restarts from fresh classifications); ``False`` leaves
        every core untouched for the exact scalar boundary path.
        """
        # Cheap count gate first: with fewer than two parked events the merge
        # cannot beat the scalar path (checked before any numpy work).
        parked = [core for core in runnable if core.end_reason == "slow"]
        obs_reg = self._obs
        if len(parked) < FLEET_MIN_PARKED:
            if obs_reg is not None:
                obs_reg.inc("kernel.merge.decline.few_parked")
            return False

        # Vectorized entry gate over the parked accesses (advisory mirror).
        darr = self._dir_array
        directory = self.protocol.directory
        if self._dir_stale:
            darr.sync_lines(self._dir_stale, directory)
            self._dir_stale.clear()
        codes_col = self.codes_col
        addrs_col = self.addrs_col
        idxs = [
            core.next_index + core.hot_len - core.applied for core in parked
        ]
        codes_g = np.array(
            [codes_col[core.core_id][i] for core, i in zip(parked, idxs)]
        )
        lines_g = (
            np.array(
                [addrs_col[core.core_id][i] for core, i in zip(parked, idxs)],
                dtype=np.uint64,
            )
            >> self._shift_u64
        )
        rows = darr.rows_for(lines_g, directory)
        shapes = self._shape_table[darr.mode[rows], CODE_KIND[codes_g]]
        ok = shapes != SHAPE_CONFLICT
        opdep = shapes == SHAPE_OP_DEPENDENT
        if opdep.any():
            ok &= ~opdep | (darr.op[rows] == CODE_OP_INDEX[codes_g])
        best_ok = False
        n_ok = 0
        for k, core in enumerate(parked):
            if ok[k]:
                n_ok += 1
                if core is best:
                    best_ok = True
        if not best_ok or n_ok < FLEET_MIN_PARKED:
            self._fleet_cooldown = FLEET_GATE_COOLDOWN
            if obs_reg is not None:
                obs_reg.inc("kernel.merge.decline.gate_conflict")
            return False

        slots = [core for core in runnable if core.next_index < core.limit]
        if len(slots) < FLEET_MIN_PARKED:  # unreachable: parked cores qualify
            return False

        n_slots = len(slots)
        cursors = [core.next_index for core in slots]
        clocks = [core.clock for core in slots]
        limits = [core.limit for core in slots]
        dirty = [False] * n_slots
        core_stats = self.core_stats
        gaps_col = self.gaps_col
        deltas_col = self.deltas_col
        touched = self._touched
        touched.clear()
        # repro-lint: disable=D103(wall time only feeds the bail heuristic's kernel-vs-scalar dispatch; both paths are bit-identical)
        fleet_start = time.perf_counter()
        retired, n_slow, _n_parked = self._resolve_slow_batch(
            [core.core_id for core in slots],
            [codes_col[core.core_id] for core in slots],
            [addrs_col[core.core_id] for core in slots],
            [gaps_col[core.core_id] for core in slots],
            [deltas_col[core.core_id] for core in slots],
            cursors,
            limits,
            clocks,
            [core_stats[core.core_id] for core in slots],
            dirty,
            max(FLEET_STREAK_BASE, 4 * n_slots),
            FLEET_MAX_RETIRE,
        )
        obs_timing = self._obs_timing
        if obs_timing is not None:
            obs_timing.observe(
                "resolve_slow_batch", obs_timing.clock() - fleet_start
            )
        if retired == 0:
            # Every slot parked (or sat beyond the bound) before mutating
            # anything: nothing moved, so fall back without any repair.
            self._fleet_cooldown = self._fleet_backoff
            self._fleet_backoff = min(self._fleet_backoff * 2, FLEET_COOLDOWN_MAX)
            if obs_reg is not None:
                obs_reg.inc("kernel.merge.decline.merge_empty")
            return False

        # Write back the slot cursors.  Slots whose private-cache membership
        # changed (fills, evictions, L2->L1 promotions) rebuild their tag
        # mirror; slots that only retired L1 hits keep mirror and window
        # (LRU refreshes don't change membership) and merely re-extract.
        for k, core in enumerate(slots):
            if cursors[k] == core.next_index and not dirty[k]:
                continue
            core.next_index = cursors[k]
            core.clock = clocks[k]
            core.class_valid = False
            if dirty[k]:
                core.stale = True
                core.mask = None

        # Mirror repair for everything else the merge's transactions moved:
        # the touched feed reports every (core, line) a slow transaction or
        # eviction changed — same coverage rules as _execute_one (dirty
        # slots are already stale, so they fall through to the cheap arm).
        dir_stale = self._dir_stale
        if obs_timing is not None:
            _obs_t0 = obs_timing.clock()
        if touched:
            cores = self.cores
            n_cores = self.n_cores
            core_states = self._core_states
            state_code_of = _STATE_CODE
            protocol = self.protocol
            for touched_id, touched_line in touched:
                dir_stale.add(touched_line)
                if touched_id >= n_cores:
                    continue
                other = cores[touched_id]
                if not other.stale:
                    new_code = state_code_of[
                        core_states[touched_id].get(touched_line)
                    ]
                    uop = UOP_NONE
                    if new_code == STATE_UPDATE and self._comm_local:
                        uop = protocol.batch_uop_code(touched_id, touched_line)
                    other.tags.update_line(touched_line, new_code, uop)
                    self._repair_mask_line(other, touched_line)
                else:
                    other.class_valid = False
                    other.mask = None
            touched.clear()

        if obs_timing is not None:
            obs_timing.observe("mask_repair", obs_timing.clock() - _obs_t0)

        self._slow_events += n_slow
        self._hits_batched += retired - n_slow
        if n_slow < FLEET_MIN_YIELD * n_slots:
            self._fleet_cooldown = self._fleet_backoff
            self._fleet_backoff = min(self._fleet_backoff * 2, FLEET_COOLDOWN_MAX)
            if obs_reg is not None:
                obs_reg.inc("kernel.merge.accept.unproductive")
                obs_reg.inc("kernel.merge.retired", retired)
        else:
            self._fleet_backoff = FLEET_COOLDOWN
            if obs_reg is not None:
                obs_reg.inc("kernel.merge.accept.productive")
                obs_reg.inc("kernel.merge.retired", retired)

        # Bail fairness: the bail heuristic's per-interval scalar estimate
        # was calibrated for the boundary path; a merge call can retire tens
        # of thousands of accesses in one interval, so judge it directly.
        # When the call measurably beat what the scalar loop would have
        # spent on the same work, vindicate the interval marks so the bail
        # comparison only ever judges the surrounding boundary work.
        # repro-lint: disable=D103(wall time only feeds the bail heuristic's kernel-vs-scalar dispatch; both paths are bit-identical)
        fleet_elapsed = time.perf_counter() - fleet_start
        scalar_estimate = _interpreter_speed_factor() * (
            (retired - n_slow) * BAIL_SCALAR_HIT_S + n_slow * BAIL_SCALAR_SLOW_S
        )
        if fleet_elapsed < scalar_estimate:
            self._bail_hits_mark = self._hits_batched
            self._bail_slow_mark = self._slow_events
            # repro-lint: disable=D103(documented bail heuristic; wall time only decides kernel-vs-scalar dispatch, both paths are bit-identical)
            self._bail_time_mark = time.perf_counter()
            self._bail_next = self._slow_events + BAIL_INTERVAL
        return True

    def _handoff(self) -> Tuple:
        """Package the current state so the scalar loop can resume exactly."""
        obs_reg = self._obs
        if obs_reg is not None:
            obs_reg.inc("kernel.stint.bail")
            obs_reg.inc("kernel.slow_events", self._slow_events)
            obs_reg.inc("kernel.hits_batched", self._hits_batched)
        cursor_state = [
            (core.clock, core.next_index, core.phase) for core in self.cores
        ]
        heap_entries = [
            (core.clock, core.core_id)
            for core in self.cores
            if not core.done and not core.at_barrier
        ]
        barrier_ids = [core.core_id for core in self.cores if core.at_barrier]
        self.protocol.touched_cores = None
        return cursor_state, self.core_stats, heap_entries, barrier_ids
