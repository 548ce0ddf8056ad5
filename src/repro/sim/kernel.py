"""Batched columnar simulation kernel: vectorized hit-run scanning.

The scalar loop (:meth:`MulticoreSimulator._run_columnar_scalar`)
interprets one access per Python iteration, even though on hit-friendly
workloads the overwhelming majority of accesses are private L1 hits that
change no coherence state visible to any other core.  This kernel removes
the interpreter from that common case:

* Per chunk of the columnar trace (a window of up to
  :data:`DEFAULT_BATCH_SIZE` accesses), the "is this a private L1 hit in a
  stable state?" predicate is evaluated for the whole chunk at once
  (:meth:`CoherenceProtocol.hot_mask`).  Its inputs are read straight from
  the object caches and the engine's state tables, once per distinct line
  of the window; the kernel keeps no copy of any core's L1.
* A window's mask stays valid until a boundary access may have changed a
  line it classifies.  The executing core's window is then dropped (its
  L1 may have filled, evicted or upgraded anything); another core's window
  is dropped only when a line the access touched (``touched_cores``)
  appears in its unconsumed part.  The next classification recomputes a
  dropped window from the core's cursor.
* A *hit-run* — a maximal hot prefix of the mask — is retired in slices.
  A slice longer than :data:`MAX_STEP_SLICE` advances with O(1) Python
  work: clocks, compute/memory cycles, latency and per-type counters are
  all computed with NumPy reductions over the slice, and LRU order is
  refreshed once per distinct line, in order of its last hit.  A shorter
  slice, and the first non-hit after a run, retire one access at a time
  through the same step (:meth:`CoherenceProtocol.make_step`) the scalar
  loop uses; a step-retired slice that is not all private hits raises
  ``RuntimeError``.

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
3. **Float arithmetic is exact.**  The kernel only runs when every timing
   constant (CPI, issue overheads, L1 latency) is a dyadic rational with at
   most 8 fractional bits (:func:`exact_timing`) — true for every shipped
   configuration.  Then all the scalar loop's partial sums are exact in
   float64 (non-negative addends, magnitudes capped by a runtime guard), so
   order of summation cannot change a single bit and closed-form NumPy
   reductions are used.  A hit-run that would cross the magnitude guard
   hands the run to the scalar loop, as a bail does.

Fallback
--------

The kernel handles engines that opt in via
:attr:`CoherenceProtocol.SUPPORTS_BATCH_KERNEL` on machines whose timing
constants are dyadic (:func:`exact_timing`); everything else runs in the
scalar loop, which is exact for every configuration.  ``REPRO_SIM_KERNEL``
selects ``auto`` (default), ``batch`` (always batch), or ``scalar`` (never
batch); any other value raises ``ValueError``.  In ``auto`` every run opens
with a short scalar *cold-start* stint over a bounded decoded prefix of each
core's trace, so the cold misses every run begins with never reach the
kernel's probation; the kernel takes over on the first long global hit
streak or when a core exhausts its prefix.  A run enters the kernel at most
once: per probation interval the kernel weighs the hits it batched against
the slow events it paid for, and when a stretch of the workload is too
slow-path-heavy to batch it bails out, handing the rest of the run to the
scalar loop on identical state — see ``MulticoreSimulator._run_columnar``.
Every decision reads only simulation counters, never a host clock, so a
trace takes the same path on every host.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

import numpy as np

from repro.core.protocol import (
    STATE_ABSENT,
    STATE_EXCLUSIVE,
    STATE_MODIFIED,
    STATE_SHARED,
    STATE_UPDATE,
    UOP_NONE,
)
from repro.core.states import StableState
from repro import obs as _obs
from repro.sim.columnar import (
    CODE_KIND,
    CODE_OP,
    CODE_OP_INDEX,
    CODE_VALUE_KIND,
    ColumnarTrace,
    KIND_LOAD,
    KIND_STORE,
    decode_value,
    decode_values,
)
from repro.sim.stats import CoreStats

#: StableState -> ``hot_mask`` state code (None covers untracked lines).
_STATE_CODE = {
    None: STATE_ABSENT,
    StableState.INVALID: STATE_ABSENT,
    StableState.SHARED: STATE_SHARED,
    StableState.EXCLUSIVE: STATE_EXCLUSIVE,
    StableState.MODIFIED: STATE_MODIFIED,
    StableState.UPDATE: STATE_UPDATE,
}

#: Hit-run slices of at most this many accesses retire one access at a time
#: through the engine's step (:meth:`CoherenceProtocol.make_step`); longer
#: ones through NumPy reductions over the slice.  Tight interleaves shatter
#: hit-runs into slices of a few hits, where the reductions' fixed cost
#: exceeds the interpreter work they replace.  Of 8, 16, 32 and 64, 16 was
#: fastest on the forced-batch paper grid (scale 0.5, 16 cores).
MAX_STEP_SLICE = 16

#: Upper bound on the classification window (accesses per chunk).
DEFAULT_BATCH_SIZE = 4096
#: Windows start here and double every time one is consumed fully hot.
MIN_WINDOW = 64

#: Closed-form reductions require every partial sum to stay exactly
#: representable: addends are non-negative dyadic rationals with <= 8
#: fractional bits, so sums are exact while below 2**53 / 2**8 = 2**45.
#: The guard trips well before that, and hands the run to the scalar loop.
_EXACT_CLOCK_LIMIT = float(1 << 44)

#: Bail-out probation.  Dispatch is a pure function of the kernel's own work
#: counters, so the same trace takes the same kernel/scalar path on every
#: host.  Every ``BAIL_INTERVAL`` slow events the kernel weighs the hits it
#: batched in the interval against the slow events it paid for.  The
#: constants come from per-access costs measured once on 16-core traces:
#:
#: * The scalar loop retires a private hit for ~1.5 µs; the kernel retires
#:   one inside a vectorized hit-run for ~0.15 µs.  Each batched hit saves
#:   ~1.35 µs.
#: * A kernel slow event pays the scalar event's protocol work plus a walk
#:   over every runnable core: each one's hit-run is cut at the event and
#:   applied as a fragment, ~5-10 µs per fragment.  So the kernel's extra
#:   cost per slow event grows with the runnable cores, ~6 µs each.
#: * A scalar slow event costs ~6 µs in all.  A kernel slow event also
#:   reclassifies every window it drops: the executing core's, and that of
#:   each core holding a line the event touched.  On a 16-core MESI atomic
#:   shared counter, where every access is a slow event, each event
#:   reclassified two windows at ~19 µs each, and forced ``batch`` took
#:   67-78 µs per event (4-32 cores) against the scalar loop's 3.2-3.4 µs.
#:   Such a stretch must bail, not linger.
#:
#: Break-even is therefore ~6 / 1.35, rounded to ``BAIL_HITS_PER_CORE_EVENT``
#: batched hits per slow event per runnable core.  An interval below it is a
#: strike, the next interval is a short ``BAIL_PROBE`` one, and
#: ``BAIL_STRIKES`` consecutive strikes hand the run to the scalar loop (in
#: conflict-dense stretches a kernel slow event, with the reclassification
#: it triggers, measured about 20x a scalar one, so a losing stint must not
#: linger for a full interval).  An interval with fewer batched hits than
#: slow events bails at once: the kernel loses on every event and, on short
#: traces, each wasted interval is a measurable fraction of the run.
#: Judging per interval, not cumulatively, lets a workload's miss-heavy
#: stretches pass without condemning the hit-run regime that follows them;
#: the run's opening cold misses never reach probation at all, because
#: ``auto`` retires them in the scalar cold-start stint
#: (``repro.sim.simulator.COLD_START_ACCESSES``).
BAIL_INTERVAL = 64
BAIL_STRIKES = 2
BAIL_HITS_PER_CORE_EVENT = 5

#: The very first probation check of a stint fires after this many slow
#: events instead of a full ``BAIL_INTERVAL``: a stint entering a
#: conflict-dense stretch (every boundary access paying a window
#: reclassification) should hand off after a handful of events, not
#: sixty-four of them.
BAIL_PROBE = 16

_VALID_MODES = ("auto", "batch", "scalar")


def kernel_mode() -> str:
    """Kernel selection from ``REPRO_SIM_KERNEL`` (``auto`` when unset or empty).

    An unknown value raises ``ValueError``: a mistyped ``scalr`` must not
    silently run the kernel.
    """
    value = os.environ.get("REPRO_SIM_KERNEL", "")
    mode = value.strip().lower() or "auto"
    if mode not in _VALID_MODES:
        raise ValueError(
            f"REPRO_SIM_KERNEL must be one of {'|'.join(_VALID_MODES)}, got {value!r}"
        )
    return mode


def exact_timing(config) -> bool:
    """Whether the kernel's closed-form reductions are exact for a machine.

    True when every timing constant a batched hit adds — CPI, the two
    issue overheads (``config.core``) and the L1 latency — is a
    non-negative multiple of ``2**-8`` (see the module docstring); any
    other machine runs in the scalar loop.
    """
    core = config.core
    return all(
        value >= 0 and float(value * 256).is_integer()
        for value in (
            core.cycles_per_instruction,
            float(core.atomic_uop_overhead),
            float(core.commutative_uop_overhead),
            float(config.l1d.latency),
        )
    )


class _ClockLimit(Exception):
    """A hit-run would end past :data:`_EXACT_CLOCK_LIMIT`."""


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
        "class_valid",
        "window",
        # -- classified window (mask pipeline; None when absent) --------------
        "win_start",
        "win_len",
        "win_lines",
        "win_kinds",
        "win_states",
        "win_codes",
        "win_addrs",
        "win_t",
        "win_addends",
        "mask",
        "cold_idx",
        # -- current hit-run ---------------------------------------------------
        "run_off",
        "hot_len",
        "applied",
        "end_reason",  # "slow" | "window" | "limit"
        "slow_priority",
        "pop_clocks",
        "end_clocks",
        "values",
    )

    def __init__(self, core_id: int, trace_len: int) -> None:
        self.core_id = core_id
        self.clock = 0.0
        self.next_index = 0
        self.phase = 0
        self.trace_len = trace_len
        self.limit = trace_len
        self.at_barrier = False
        self.done = False
        self.class_valid = False
        self.window = MIN_WINDOW
        self.win_start = 0
        self.win_len = 0
        self.win_lines = None
        self.win_kinds = None
        self.win_states = None
        self.win_codes = None
        self.win_addrs = None
        self.win_t = None
        self.win_addends = None
        self.mask = None
        self.cold_idx = None
        self.run_off = 0
        self.hot_len = 0
        self.applied = 0
        self.end_reason = "limit"
        self.slow_priority = 0.0
        self.pop_clocks = None
        self.end_clocks = None
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
        "_l1_latency",
        "_l1_hit_total",
        "_overhead_by_kind",
        "_line_shift",
        "_shift_u64",
        "_l1_num_sets",
        "_core_states",
        "_l1_caches",
        "_track_values",
        "_memory_image",
        "_comm_local",
        "_step",
        "_max_window",
        "_min_window",
        "_touched",
        "_slow_events",
        "_hits_batched",
        "_bail_next",
        "_bail_hits_mark",
        "_bail_slow_mark",
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
        self.cores = [_BatchCore(i, len(workload.columns[i])) for i in range(n_cores)]
        if resume is not None:
            # Handoff from the cold-start stint (see _run_columnar): the
            # state is exactly what _handoff produces, so the kernel takes
            # over without losing a single access.
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

        # -- the long-slice path's twin of the step's timing constants -------
        core_config = config.core
        atomic_overhead = float(core_config.atomic_uop_overhead)
        commutative_overhead = float(core_config.commutative_uop_overhead)
        self._cpi = core_config.cycles_per_instruction
        self._l1_latency = config.l1d.latency
        self._l1_hit_total = self._l1_latency + 0.0
        #: Issue overhead per ``CODE_KIND``: load, store, atomic,
        #: commutative, remote.
        self._overhead_by_kind = np.array(
            [0.0, 0.0, atomic_overhead, commutative_overhead, commutative_overhead]
        )
        self._line_shift = protocol._line_shift
        self._shift_u64 = np.uint64(self._line_shift)
        self._l1_num_sets = config.l1d.num_sets

        self._core_states = protocol.core_states
        self._l1_caches = protocol._l1_caches
        self._track_values = protocol.track_values
        self._memory_image = protocol.memory_image
        self._comm_local = protocol.HOT_COMMUTATIVE == "local"
        # Built per run, after any instrumentation wrapped resolve_slow.
        self._step = protocol.make_step()

        self._max_window = DEFAULT_BATCH_SIZE
        self._min_window = min(MIN_WINDOW, self._max_window)
        for core in self.cores:
            core.window = self._min_window

        # Cross-core invalidation feed: every slow-path _set_state records the
        # (core, line) it touched, so only the windows that classify a
        # touched line are dropped.
        self._touched: set = set()
        protocol.touched_cores = self._touched

        # Bail-out accounting (per-interval hits against slow events).
        self._slow_events = 0
        self._hits_batched = 0
        self._bail_next = BAIL_PROBE
        self._bail_hits_mark = 0
        self._bail_slow_mark = 0
        self._bail_strikes = 0

        # Telemetry (repro.obs).  Both handles are None when REPRO_OBS=off;
        # every instrumented site below guards on that and sits exclusively
        # on slow paths (stint boundaries, slow-event resolution) — never
        # inside _apply's per-access hot loops.  Timing reads route through
        # the registry's clock (the sanctioned wall-clock island); nothing
        # recorded here ever feeds a SimulationResult.  Stint entries are
        # counted by the dispatcher (MulticoreSimulator._run_columnar).
        self._obs = _obs.get_registry()
        self._obs_timing = _obs.timing_registry()

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
        kinds = CODE_KIND[codes]
        think = gaps * self._cpi
        t = think + self._overhead_by_kind[kinds]
        core.win_codes = codes
        core.win_addrs = addrs
        core.win_lines = addrs >> self._shift_u64
        core.win_kinds = kinds
        core.win_t = t
        core.win_addends = t + self._l1_hit_total
        core.values = None
        self._eval_mask(core)

    def _eval_mask(self, core: _BatchCore) -> None:
        """Evaluate the window's hot mask from the object caches.

        Each distinct line of the window is looked up once: its residency
        in the core's L1, the core's stable state for it and, for a U line
        under local folding, the op it may buffer
        (:meth:`MeusiProtocol.batch_uop_code`).  The per-line codes are then
        scattered back over the window's accesses.
        """
        obs_timing = self._obs_timing
        if obs_timing is not None:
            _obs_t0 = obs_timing.clock()
        core_id = core.core_id
        distinct, inverse = np.unique(core.win_lines, return_inverse=True)
        line_sets = self._l1_caches[core_id]._sets
        num_sets = self._l1_num_sets
        state_of = self._core_states[core_id].get
        state_code = _STATE_CODE
        line_codes = np.array(
            [
                state_code[state_of(line_addr)]
                if line_addr in line_sets.get(line_addr % num_sets, ())
                else STATE_ABSENT
                for line_addr in distinct.tolist()
            ],
            dtype=np.uint8,
        )
        states = line_codes[inverse]
        uops = None
        if self._comm_local:
            line_uops = np.full(len(line_codes), UOP_NONE, dtype=np.uint8)
            batch_uop_code = self.protocol.batch_uop_code
            for position in np.flatnonzero(line_codes == STATE_UPDATE).tolist():
                line_uops[position] = batch_uop_code(core_id, int(distinct[position]))
            uops = line_uops[inverse]
        core.mask = self.protocol.hot_mask(
            core.win_kinds,
            states != STATE_ABSENT,
            states,
            uops,
            CODE_OP_INDEX[core.win_codes],
        )
        core.win_states = states
        core.cold_idx = np.flatnonzero(~core.mask)
        if obs_timing is not None:
            obs_timing.observe("eval_mask", obs_timing.clock() - _obs_t0)

    def _classify(self, core: _BatchCore) -> None:
        """Extract the next hit-run at the core's cursor (mask pipeline)."""
        offset = core.next_index - core.win_start
        if core.mask is None or offset >= core.win_len:
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

        cold = core.cold_idx
        position = int(np.searchsorted(cold, offset))
        end = int(cold[position]) if position < len(cold) else core.win_len
        run = end - offset
        core.run_off = offset
        core.hot_len = run
        core.applied = 0
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

        end_clocks = core.clock + np.cumsum(core.win_addends[offset:end])
        last = float(end_clocks[-1])
        if last >= _EXACT_CLOCK_LIMIT:
            # Closed forms are no longer provably exact: the scalar loop
            # finishes the run.
            raise _ClockLimit
        pop_clocks = np.empty(run)
        pop_clocks[0] = core.clock
        pop_clocks[1:] = end_clocks[:-1]
        core.end_clocks = end_clocks
        core.pop_clocks = pop_clocks
        core.slow_priority = last

    # ------------------------------------------------------------- application

    def _apply(self, core: _BatchCore, cut: int) -> None:
        """Advance the core through hit-run accesses ``[applied, cut)``.

        A slice of at most :data:`MAX_STEP_SLICE` accesses is retired one
        access at a time through the engine's step; a longer one with NumPy
        reductions over the slice, the vectorized twin of the step's hit
        accounting.  Either way every access must be a private hit: a
        step-retired slice that was not raises ``RuntimeError``, since its
        protocol action would have run outside scalar order.
        """
        begin = core.applied
        if cut <= begin:
            return
        core_id = core.core_id
        stats = self.core_stats[core_id]
        count = cut - begin
        low = core.run_off + begin
        high = core.run_off + cut

        if count <= MAX_STEP_SLICE:
            start = core.win_start
            if self._track_values:
                if core.values is None:
                    core.values = decode_values(
                        self.columns[core_id][start : start + core.win_len]
                    )
                values = core.values[low:high]
            else:
                values = [None] * count  # an untracked hit never reads its value
            step = self._step
            clock = core.clock
            hits = stats.l1_hits
            for code, address, gap, value in zip(
                core.win_codes[low:high].tolist(),
                core.win_addrs[low:high].tolist(),
                self.gaps_col[core_id][start + low : start + high].tolist(),
                values,
            ):
                clock = step(core_id, code, address, value, gap, clock, stats)
            if stats.l1_hits - hits != count:
                raise RuntimeError(
                    f"batched kernel: core {core_id} retired {count} accesses "
                    f"classified hot from trace index {core.next_index}, but only "
                    f"{stats.l1_hits - hits} were private hits"
                )
            core.clock = clock
            core.applied = cut
            core.next_index += count
            self._hits_batched += count
            return

        kinds_seg = core.win_kinds[low:high]
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
        stats.accesses += count
        stats.l1_hits += count
        core.clock = float(core.end_clocks[cut - 1])
        if self._comm_local and (comm_n or remote_n):
            self.protocol.stat_local_updates += comm_n + remote_n

        # L1 statistics and LRU: every hit moves its line to the end of the
        # set, so after the run the distinct lines sit in ascending order of
        # their last hit, which is what the scalar per-access refresh
        # converges to.
        l1 = self._l1_caches[core_id]
        l1.hits += count
        seg_lines = core.win_lines[low:high]
        line_sets = l1._sets
        num_sets = l1._num_sets
        distinct, reverse_first = np.unique(seg_lines[::-1], return_index=True)
        last_offsets = (count - 1) - reverse_first
        for line_addr in distinct[np.argsort(last_offsets)].tolist():
            cache_set = line_sets[line_addr % num_sets]
            del cache_set[line_addr]
            cache_set[line_addr] = True

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

    # ------------------------------------------------------- boundary accesses

    def _execute_one(self, core: _BatchCore) -> None:
        """Interpret the single access that ended a hit-run.

        Retires it through the engine's step (:meth:`CoherenceProtocol.make_step`),
        then drops the windows the access may have reclassified: the
        executing core's, and each other core's whose unconsumed part holds
        a line the access touched.
        """
        core_id = core.core_id
        index = core.next_index
        code = int(self.codes_col[core_id][index])
        address = int(self.addrs_col[core_id][index])
        gap = float(self.gaps_col[core_id][index])
        value = decode_value(
            CODE_VALUE_KIND[code], int(self.deltas_col[core_id][index])
        )
        core.next_index = index + 1
        core.class_valid = False
        core.mask = None

        touched = self._touched
        touched.clear()
        obs_timing = self._obs_timing
        if obs_timing is not None:
            _obs_t0 = obs_timing.clock()
        core.clock = self._step(
            core_id, code, address, value, gap, core.clock, self.core_stats[core_id]
        )
        if obs_timing is not None:
            obs_timing.observe("resolve_slow", obs_timing.clock() - _obs_t0)

        # Other cores only ever lose lines or change state on them
        # (invalidations, downgrades, reductions), each reported via
        # touched_cores as a (core, line) pair.
        cores = self.cores
        n_cores = self.n_cores
        for touched_id, touched_line in touched:
            if touched_id == core_id or touched_id >= n_cores:
                continue
            other = cores[touched_id]
            if other.mask is not None and (
                other.win_lines[other.next_index - other.win_start :] == touched_line
            ).any():
                other.mask = None
                other.class_valid = False
        touched.clear()

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

    def _earliest_event(self, runnable: List[_BatchCore]) -> Optional[_BatchCore]:
        """The core parked at the earliest potential event, in scalar order.

        Replays the scalar heap's ``(clock, core_id)`` tuple order over the
        cores' classified run ends; cores draining into their limit have no
        event.  ``None`` when no runnable core has one.
        """
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
        return best

    def run(self) -> Optional[Tuple]:
        """Simulate to completion (``None``) or hand off to the scalar loop."""
        try:
            return self._run()
        except _ClockLimit:
            # Classification only reads state, and between any two
            # retirements every core has advanced through hits that precede
            # the next slow access in scalar order, so the run hands off
            # exactly as a bail does.
            if self._obs is not None:
                self._obs.inc("kernel.bail.clock_limit")
            return self._handoff()

    def _run(self) -> Optional[Tuple]:
        cores = self.cores
        # Consecutive restarts of the event selection that moved nothing.
        # Each honest restart reclassifies one core and so reveals its event;
        # more restarts than runnable cores means the selection disagrees
        # with the boundary walk's order and would spin forever.
        stalls = 0
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

            if not self.force and self._slow_events >= self._bail_next:
                reason = self._judge_interval(len(runnable))
                if reason is not None:
                    if self._obs is not None:
                        self._obs.inc("kernel.bail." + reason)
                    return self._handoff()

            for core in runnable:
                if not core.class_valid:
                    self._classify(core)

            best = self._earliest_event(runnable)

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

            # A real slow access at (best_clock, best_id): advance every
            # other core through exactly the hits that precede the event; a
            # window reload along the way can reveal an even earlier event,
            # in which case restart the selection.
            best_clock = best.slow_priority
            best_id = best.core_id
            hits_mark = self._hits_batched
            earlier = None
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
                        earlier = core
                    break
                if earlier is not None:
                    break
            if earlier is not None:
                if self._hits_batched != hits_mark:
                    stalls = 0
                else:
                    stalls += 1
                    if stalls > len(runnable):
                        raise RuntimeError(
                            f"batched kernel made no progress in {stalls} event "
                            f"selections: it picked core {best_id} at "
                            f"{best_clock!r}, but core {earlier.core_id} is "
                            f"parked earlier at {earlier.slow_priority!r}"
                        )
                continue
            stalls = 0

            self._apply(best, best.hot_len)
            obs_timing = self._obs_timing
            if obs_timing is not None:
                _obs_t0 = obs_timing.clock()
                self._execute_one(best)
                obs_timing.observe("execute_one", obs_timing.clock() - _obs_t0)
            else:
                self._execute_one(best)
            self._slow_events += 1

    def _judge_interval(self, n_runnable: int) -> Optional[str]:
        """Close a probation interval: the bail reason, or ``None`` to stay."""
        interval_hits = self._hits_batched - self._bail_hits_mark
        interval_slow = self._slow_events - self._bail_slow_mark
        if interval_hits < interval_slow:
            return "hard"
        if interval_hits >= BAIL_HITS_PER_CORE_EVENT * n_runnable * interval_slow:
            self._bail_strikes = 0
            self._reset_probation(BAIL_INTERVAL)
            return None
        self._bail_strikes += 1
        if self._bail_strikes >= BAIL_STRIKES:
            return "strikes"
        # A struck stint is re-judged on a short interval, so a losing one
        # hands off after BAIL_PROBE more events, not BAIL_INTERVAL.
        self._reset_probation(BAIL_PROBE)
        return None

    def _reset_probation(self, length: int) -> None:
        """Start a fresh probation interval of ``length`` slow events."""
        self._bail_hits_mark = self._hits_batched
        self._bail_slow_mark = self._slow_events
        self._bail_next = self._slow_events + length

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
