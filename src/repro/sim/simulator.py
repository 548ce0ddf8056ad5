"""Multicore trace-driven timing simulator.

The simulator interleaves per-core access traces in global-time order: the
core with the smallest local clock issues its next access, the protocol engine
resolves it (returning critical-path latency and recording traffic), and the
core's clock advances by the compute time plus memory latency.  Optional phase
barriers synchronise all cores, which is how reduction phases of privatized
workloads and supersteps of iterative algorithms are modelled.

This per-access atomic resolution plus per-line serialization at the directory
captures the effects COUP targets — line ping-pong, invalidation storms, and
serialization of contended atomics — without modelling transient protocol
races (those are verified separately in :mod:`repro.verification`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Type

from repro import obs as _obs
from repro.core.mesi import MesiProtocol
from repro.core.meusi import MeusiProtocol
from repro.core.protocol import CoherenceProtocol
from repro.core.rmo import RmoProtocol
from repro.core.states import StableState
from repro.sim.access import AccessType, MemoryAccess, WorkloadTrace
from repro.sim.columnar import (
    CODE_ACCESS_TYPE,
    CODE_OP,
    CODE_SIZE,
    COMM_MIN_CODE,
    COMMUTATIVE_MIN_CODE,
    REMOTE_MIN_CODE,
    UPDATE_MIN_CODE,
    ColumnarTrace,
    decode_values,
)
from repro.sim.config import SystemConfig
from repro.sim.core_model import CoreTimingModel
from repro.sim.stats import CoreStats, SimulationResult


#: Consecutive private hits (across all cores) after which the scalar
#: columnar loop hands control back to the batched kernel: a long global
#: streak means every core is in the kernel's hit-run regime.
REENTER_STREAK = 512

#: Upper bound on batched-kernel stints per run, so a workload oscillating
#: near the batch/scalar break-even settles in the scalar loop.
MAX_KERNEL_STINTS = 3


#: Registry of protocol engines selectable by name.
PROTOCOLS: Dict[str, Type[CoherenceProtocol]] = {
    "MESI": MesiProtocol,
    "COUP": MeusiProtocol,
    "MEUSI": MeusiProtocol,
    "RMO": RmoProtocol,
}


def make_protocol(
    name: str, config: SystemConfig, track_values: bool = True
) -> CoherenceProtocol:
    """Instantiate a protocol engine by name (``MESI``, ``COUP``, ``RMO``)."""
    try:
        protocol_cls = PROTOCOLS[name.upper()]
    except KeyError as exc:
        raise ValueError(
            f"unknown protocol {name!r}; expected one of {sorted(PROTOCOLS)}"
        ) from exc
    return protocol_cls(config, track_values=track_values)


@dataclass(slots=True)
class _CoreCursor:
    """Per-core simulation cursor."""

    core_id: int
    clock: float = 0.0
    next_index: int = 0
    phase: int = 0
    waiting_at_barrier: bool = False


class MulticoreSimulator:
    """Runs one workload trace under one protocol on one machine config."""

    __slots__ = ("config", "protocol", "core_model", "track_values")

    def __init__(
        self,
        config: SystemConfig,
        protocol: CoherenceProtocol,
        *,
        track_values: bool = True,
    ) -> None:
        self.config = config
        self.protocol = protocol
        self.core_model = CoreTimingModel(config.core)
        self.track_values = track_values

    def run(self, workload) -> SimulationResult:
        """Simulate the workload to completion and return statistics.

        Accepts either trace representation: the object form
        (:class:`WorkloadTrace`) or the packed columnar form
        (:class:`~repro.sim.columnar.ColumnarTrace`), which is simulated by
        :meth:`_run_columnar` without materializing per-access objects.  The
        two paths are pinned bit-identical by the golden-equivalence suite.
        """
        if isinstance(workload, ColumnarTrace):
            return self._run_columnar(workload)
        if workload.n_cores > self.config.n_cores:
            raise ValueError(
                f"workload uses {workload.n_cores} cores but the machine has "
                f"{self.config.n_cores}"
            )
        workload.validate()

        n_cores = workload.n_cores
        cursors = [_CoreCursor(core_id=i) for i in range(n_cores)]
        core_stats = [CoreStats(core_id=i) for i in range(n_cores)]
        phase_boundaries = workload.phase_boundaries or []
        n_phases = len(phase_boundaries)

        # -- hot-loop constants, hoisted out of the per-access path -----------
        heappush = heapq.heappush
        heappop = heapq.heappop
        protocol = self.protocol
        traces = workload.per_core
        trace_lens = [len(trace) for trace in traces]
        cpi = self.core_model.cycles_per_instruction
        atomic_overhead = self.core_model.atomic_overhead
        commutative_overhead = self.core_model.commutative_overhead
        # Private-hit latencies, as the same float sums the transaction path
        # would produce (L1, and L1+L2) so results stay bit-identical.
        l1_latency = self.config.l1d.latency
        l2_latency = self.config.l2.latency
        l1_hit_total = l1_latency + 0.0
        l2_hit_total = l1_latency + l2_latency + 0.0
        load_t = AccessType.LOAD
        store_t = AccessType.STORE
        atomic_t = AccessType.ATOMIC_RMW
        commutative_t = AccessType.COMMUTATIVE_UPDATE
        # (REMOTE_UPDATE is the dispatch's final else: no constant needed.)

        # Inline private-hit fast path (see CoherenceProtocol.resolve_slow):
        # for the MESI-family engines the loop resolves hits against the
        # protocol's own tables without a single protocol call, and everything
        # else drops into resolve_slow.  Engines without fast-path support
        # fall back to access_hot per access.
        inline = protocol.SUPPORTS_INLINE_FAST_PATH
        if inline:
            resolve_slow = protocol.resolve_slow
            core_states = protocol.core_states
            l1_caches = protocol._l1_caches
            l2_caches = protocol._l2_caches
            line_shift = protocol._line_shift
            track_values = protocol.track_values
            memory_image = protocol.memory_image
            directory_entries = protocol.directory._entries
            comm_local = protocol.HOT_COMMUTATIVE == "local"
            comm_never = protocol.HOT_COMMUTATIVE == "never"
            exclusive_s = StableState.EXCLUSIVE
            modified_s = StableState.MODIFIED
            update_s = StableState.UPDATE
        else:
            access_hot = protocol.access_hot

        # Min-heap of (clock, core_id) for cores that still have work to do.
        # The core id is an explicit part of every heap entry so that cores
        # whose clocks are exactly equal are always popped in ascending
        # core-id order — the interleaving is fully deterministic, and the
        # object and columnar simulation paths can never diverge on ties
        # (pinned by tests/sim/test_simulator.py::TestCoreSelectionTieBreak).
        heap: List[tuple] = [(0.0, i) for i in range(n_cores)]
        heapq.heapify(heap)
        barrier_waiters: List[int] = []

        while heap or barrier_waiters:
            if not heap:
                # Every runnable core reached the current barrier: release it.
                self._release_barrier(cursors, barrier_waiters, heap)
                continue

            clock, core_id = heappop(heap)
            cursor = cursors[core_id]
            index = cursor.next_index

            if index >= trace_lens[core_id]:
                # This core is done; it still participates in barriers so that
                # phases end only when every core has arrived.  The clock is
                # normally carried in the heap tuples; record it on the
                # cursor only when the core leaves the heap.
                cursor.clock = clock
                if cursor.phase < n_phases:
                    barrier_waiters.append(core_id)
                continue

            # Check whether the core has reached its next phase boundary.
            if cursor.phase < n_phases:
                if index >= phase_boundaries[cursor.phase][core_id]:
                    cursor.clock = clock
                    barrier_waiters.append(core_id)
                    continue

            access = traces[core_id][index]
            cursor.next_index = index + 1
            stats = core_stats[core_id]

            # One fused dispatch on the access type: issue overhead and the
            # per-type instruction counters.
            access_type = access.access_type
            is_comm = False
            if access_type is load_t:
                overhead = 0.0
                stats.loads += 1
            elif access_type is store_t:
                overhead = 0.0
                stats.stores += 1
            elif access_type is atomic_t:
                overhead = atomic_overhead
                stats.atomics += 1
            elif access_type is commutative_t:
                overhead = commutative_overhead
                stats.commutative_updates += 1
                is_comm = True
            else:
                overhead = commutative_overhead
                stats.remote_updates += 1
                is_comm = True

            think = access.think_instructions * cpi
            issue_time = clock + think

            hit_level = 0
            if inline:
                address = access.address
                line_addr = address >> line_shift
                states = core_states[core_id]
                state = states.get(line_addr)
                level = None
                # Probe the private caches only when a hit is possible under
                # this engine's rules; any access the original transaction
                # path would probe but this loop does not is probed inside
                # resolve_slow instead, so the lookup happens exactly once.
                if state is not None and (
                    (not comm_never) if is_comm else (state is not update_s)
                ):
                    # Same side effects as CacheHierarchy.private_lookup_level
                    # and CoherenceProtocol._private_level — the probe is
                    # intentionally hand-duplicated for speed; change every
                    # copy listed in _private_level's WARNING together (the
                    # golden-equivalence suite catches divergence).
                    l1 = l1_caches[core_id]
                    cache_set = l1._sets.get(line_addr % l1._num_sets)
                    info = cache_set.get(line_addr) if cache_set is not None else None
                    if info is not None:
                        l1.hits += 1
                        l1._tick = tick = l1._tick + 1
                        info.last_use = tick
                        level = 1
                    else:
                        l1.misses += 1
                        l2 = l2_caches[core_id]
                        cache_set = l2._sets.get(line_addr % l2._num_sets)
                        info = cache_set.get(line_addr) if cache_set is not None else None
                        if info is not None:
                            l2.hits += 1
                            l2._tick = tick = l2._tick + 1
                            info.last_use = tick
                            l1.insert(line_addr)
                            level = 2
                        else:
                            l2.misses += 1
                            level = 0
                    if level:
                        if access_type is load_t:
                            if state is not update_s:  # S/E/M satisfy loads
                                hit_level = level
                        elif state is modified_s or state is exclusive_s:
                            # Store, atomic, or (folded/local) commutative
                            # update against our own M/E copy.
                            states[line_addr] = modified_s
                            if track_values:
                                if access_type is store_t:
                                    if access.value is not None:
                                        memory_image[address] = access.value
                                else:
                                    protocol._functional_update(access)
                            if is_comm and comm_local:
                                protocol.stat_local_updates += 1
                            hit_level = level
                        elif state is update_s and is_comm and comm_local:
                            # U-state line: buffer same-type updates locally.
                            entry = directory_entries.get(line_addr)
                            op = access.op
                            if op is not None and entry is not None and entry.op is op:
                                if track_values:
                                    protocol._apply_local_update(core_id, access)
                                protocol.stat_local_updates += 1
                                hit_level = level
                if not hit_level:
                    latency = resolve_slow(
                        core_id, access, line_addr, state, level, issue_time, stats.latency
                    )
            else:
                latency = access_hot(core_id, access, issue_time, stats.latency)
                if latency.__class__ is int:
                    hit_level = latency

            if hit_level:
                # Private hit: charge the fixed L1/L2 latency (the slow path
                # charged its own components to stats.latency in place).
                latency_record = stats.latency
                latency_record.l1 += l1_latency
                if hit_level == 1:
                    latency = l1_hit_total
                else:
                    latency_record.l2 += l2_latency
                    latency = l2_hit_total
                stats.l1_hits += 1

            stats.accesses += 1
            stats.compute_cycles += think + overhead
            stats.memory_cycles += latency

            heappush(heap, (issue_time + overhead + latency, core_id))

        return self._finish(workload, cursors, core_stats)

    def _run_columnar(self, workload: ColumnarTrace) -> SimulationResult:
        """Simulate a columnar trace via the batched kernel or the scalar loop.

        The three-tier hot path: the batched kernel (:mod:`repro.sim.kernel`)
        advances whole hit-runs with vectorized scans, dropping into the
        inline per-access probe at run boundaries, which in turn drops into
        :meth:`CoherenceProtocol.resolve_slow` for protocol action.  The
        kernel is used when the engine opts in (``SUPPORTS_BATCH_KERNEL``)
        and ``REPRO_SIM_KERNEL`` allows it; in ``auto`` mode it bails out to
        the scalar loop mid-run on workloads whose hit-runs are too short to
        batch profitably.  All paths are bit-identical (golden suite plus
        the batch-boundary grids in tests/sim/test_batch_kernel.py).
        """
        if workload.n_cores > self.config.n_cores:
            raise ValueError(
                f"workload uses {workload.n_cores} cores but the machine has "
                f"{self.config.n_cores}"
            )
        workload.validate()

        from repro.sim.kernel import BatchedKernel, kernel_mode

        mode = kernel_mode()
        if (
            mode == "scalar"
            or not self.protocol.SUPPORTS_BATCH_KERNEL
            or not self.protocol.SUPPORTS_INLINE_FAST_PATH
        ):
            return self._run_columnar_scalar(workload)

        # The two loops alternate on the same exact state: the kernel bails
        # to the scalar loop when a stretch of the workload defeats both of
        # its batching tiers (hit-run windows and group retirement of
        # independent slow accesses — conflict-dense stretches like cross-op
        # reductions defeat the merge's entry gate), and the scalar loop
        # hands back when it observes a long run of consecutive private hits
        # (the kernel's regime).  Stints are capped so a workload
        # oscillating near break-even settles in the scalar loop.
        force = mode == "batch"
        state = None
        scratch: dict = {}
        stints = 1
        while True:
            kernel = BatchedKernel(self, workload, force=force, resume=state)
            state = kernel.run()
            if state is None:
                self.protocol.touched_cores = None
                cursors = [
                    _CoreCursor(
                        core_id=core.core_id,
                        clock=core.clock,
                        next_index=core.next_index,
                        phase=core.phase,
                    )
                    for core in kernel.cores
                ]
                return self._finish(workload, cursors, kernel.core_stats)
            obs_reg = _obs.get_registry()
            if obs_reg is not None:
                obs_reg.inc("sim.stint.scalar")
            outcome = self._run_columnar_scalar(
                workload,
                resume=state,
                scratch=scratch,
                reenter=stints < MAX_KERNEL_STINTS,
            )
            if isinstance(outcome, SimulationResult):
                return outcome
            state = outcome
            stints += 1

    def _run_columnar_scalar(
        self, workload: ColumnarTrace, resume=None, scratch=None, reenter=False
    ):
        """Columnar twin of :meth:`run`: cursor-indexed raw columns.

        The control flow, arithmetic, and protocol interactions are kept
        line-for-line equivalent to the object loop — only the per-access
        representation differs.  ``MemoryAccess`` objects are materialized
        lazily, and only for the protocol calls whose signatures take one
        (``resolve_slow``/``access_hot`` and the functional-update helpers);
        every private hit resolves against raw ints and floats.  Any change
        here must be mirrored in :meth:`run`, in the batched kernel's
        boundary path (``BatchedKernel._execute_one``), and in the engines'
        group-retirement merge (``resolve_slow_batch``, which replays this
        loop's probe + ``resolve_slow`` sequence inline per slot); the
        golden equivalence suite pins all paths bit-identical.

        ``resume`` is a handoff from a bailed-out batched-kernel run:
        ``(per-core (clock, next_index, phase), core_stats, heap entries,
        barrier-waiter ids)``.  The kernel maintains exactly this loop's
        state, so resuming mid-run continues the identical simulation.  With
        ``reenter``, a run of :data:`REENTER_STREAK` consecutive private
        hits returns the same handoff shape instead of a result, so
        :meth:`_run_columnar` can hand the hot stretch back to the kernel;
        ``scratch`` caches the decoded columns across such alternations.
        """
        n_cores = workload.n_cores
        if resume is None:
            cursors = [_CoreCursor(core_id=i) for i in range(n_cores)]
            core_stats = [CoreStats(core_id=i) for i in range(n_cores)]
        else:
            cursor_state, core_stats, _, _ = resume
            cursors = [
                _CoreCursor(core_id=i, clock=clock, next_index=next_index, phase=phase)
                for i, (clock, next_index, phase) in enumerate(cursor_state)
            ]
        phase_boundaries = workload.phase_boundaries or []
        n_phases = len(phase_boundaries)

        # -- per-core columns, decoded once into flat Python lists ------------
        # ``tolist`` converts whole columns in C: addresses become plain ints
        # (exact dict keys for the protocol tables), compute gaps stay floats
        # (``gap * cpi`` is bit-identical to ``int_think * cpi`` because every
        # gap is an exact small integer), and operand values are decoded by
        # kind in one vectorized pass per core.
        columns = scratch.get("columns") if scratch is not None else None
        if columns is None:
            columns = (
                [column["type_code"].tolist() for column in workload.columns],
                [column["address"].tolist() for column in workload.columns],
                [column["compute_gap"].tolist() for column in workload.columns],
                [decode_values(column) for column in workload.columns],
            )
            if scratch is not None:
                scratch["columns"] = columns
        codes_pc, addrs_pc, gaps_pc, values_pc = columns
        trace_lens = [len(codes) for codes in codes_pc]

        # -- hot-loop constants, hoisted out of the per-access path -----------
        heappush = heapq.heappush
        heappop = heapq.heappop
        protocol = self.protocol
        cpi = self.core_model.cycles_per_instruction
        atomic_overhead = self.core_model.atomic_overhead
        commutative_overhead = self.core_model.commutative_overhead
        l1_latency = self.config.l1d.latency
        l2_latency = self.config.l2.latency
        l1_hit_total = l1_latency + 0.0
        l2_hit_total = l1_latency + l2_latency + 0.0
        # type_code classification bounds (see repro.sim.columnar): loads,
        # then stores, then atomic/commutative/remote updates in ascending
        # code ranges.  Hoisted to locals for the hot loop.
        store_min = UPDATE_MIN_CODE
        atomic_min = COMM_MIN_CODE
        commutative_min = COMMUTATIVE_MIN_CODE
        remote_min = REMOTE_MIN_CODE
        code_type = CODE_ACCESS_TYPE
        code_op = CODE_OP
        code_size = CODE_SIZE
        new_access = MemoryAccess.__new__

        inline = protocol.SUPPORTS_INLINE_FAST_PATH
        if inline:
            resolve_slow = protocol.resolve_slow
            core_states = protocol.core_states
            l1_caches = protocol._l1_caches
            l2_caches = protocol._l2_caches
            line_shift = protocol._line_shift
            track_values = protocol.track_values
            memory_image = protocol.memory_image
            directory_entries = protocol.directory._entries
            comm_local = protocol.HOT_COMMUTATIVE == "local"
            comm_never = protocol.HOT_COMMUTATIVE == "never"
            exclusive_s = StableState.EXCLUSIVE
            modified_s = StableState.MODIFIED
            update_s = StableState.UPDATE
        else:
            access_hot = protocol.access_hot

        # Same deterministic (clock, core_id) heap as the object loop: equal
        # clocks always pop in ascending core-id order.
        if resume is None:
            heap: List[tuple] = [(0.0, i) for i in range(n_cores)]
            barrier_waiters: List[int] = []
        else:
            heap = list(resume[2])
            barrier_waiters = list(resume[3])
        heapq.heapify(heap)
        hit_streak = 0

        while heap or barrier_waiters:
            if not heap:
                self._release_barrier(cursors, barrier_waiters, heap)
                continue

            clock, core_id = heappop(heap)
            cursor = cursors[core_id]
            index = cursor.next_index

            if index >= trace_lens[core_id]:
                cursor.clock = clock
                if cursor.phase < n_phases:
                    barrier_waiters.append(core_id)
                continue

            if cursor.phase < n_phases:
                if index >= phase_boundaries[cursor.phase][core_id]:
                    cursor.clock = clock
                    barrier_waiters.append(core_id)
                    continue

            code = codes_pc[core_id][index]
            address = addrs_pc[core_id][index]
            gap = gaps_pc[core_id][index]
            cursor.next_index = index + 1
            stats = core_stats[core_id]

            # Fused dispatch on the packed type code (integer range compares
            # replace the enum identity checks of the object loop).
            is_comm = False
            if code < store_min:  # LOAD
                overhead = 0.0
                stats.loads += 1
            elif code < atomic_min:  # STORE
                overhead = 0.0
                stats.stores += 1
            elif code < commutative_min:  # ATOMIC_RMW
                overhead = atomic_overhead
                stats.atomics += 1
            elif code < remote_min:  # COMMUTATIVE_UPDATE
                overhead = commutative_overhead
                stats.commutative_updates += 1
                is_comm = True
            else:  # REMOTE_UPDATE
                overhead = commutative_overhead
                stats.remote_updates += 1
                is_comm = True

            think = gap * cpi
            issue_time = clock + think

            hit_level = 0
            if inline:
                line_addr = address >> line_shift
                states = core_states[core_id]
                state = states.get(line_addr)
                level = None
                if state is not None and (
                    (not comm_never) if is_comm else (state is not update_s)
                ):
                    # Same hand-duplicated private-cache probe as the object
                    # loop (see the WARNING in CoherenceProtocol._private_level).
                    l1 = l1_caches[core_id]
                    cache_set = l1._sets.get(line_addr % l1._num_sets)
                    info = cache_set.get(line_addr) if cache_set is not None else None
                    if info is not None:
                        l1.hits += 1
                        l1._tick = tick = l1._tick + 1
                        info.last_use = tick
                        level = 1
                    else:
                        l1.misses += 1
                        l2 = l2_caches[core_id]
                        cache_set = l2._sets.get(line_addr % l2._num_sets)
                        info = cache_set.get(line_addr) if cache_set is not None else None
                        if info is not None:
                            l2.hits += 1
                            l2._tick = tick = l2._tick + 1
                            info.last_use = tick
                            l1.insert(line_addr)
                            level = 2
                        else:
                            l2.misses += 1
                            level = 0
                    if level:
                        if code < store_min:  # LOAD
                            if state is not update_s:
                                hit_level = level
                        elif state is modified_s or state is exclusive_s:
                            states[line_addr] = modified_s
                            if track_values:
                                if code < atomic_min:  # STORE
                                    value = values_pc[core_id][index]
                                    if value is not None:
                                        memory_image[address] = value
                                else:
                                    access = new_access(MemoryAccess)
                                    access.access_type = code_type[code]
                                    access.address = address
                                    access.op = code_op[code]
                                    access.value = values_pc[core_id][index]
                                    access.think_instructions = int(gap)
                                    access.size_bytes = code_size[code]
                                    protocol._functional_update(access)
                            if is_comm and comm_local:
                                protocol.stat_local_updates += 1
                            hit_level = level
                        elif state is update_s and is_comm and comm_local:
                            entry = directory_entries.get(line_addr)
                            op = code_op[code]
                            if op is not None and entry is not None and entry.op is op:
                                if track_values:
                                    access = new_access(MemoryAccess)
                                    access.access_type = code_type[code]
                                    access.address = address
                                    access.op = op
                                    access.value = values_pc[core_id][index]
                                    access.think_instructions = int(gap)
                                    access.size_bytes = code_size[code]
                                    protocol._apply_local_update(core_id, access)
                                protocol.stat_local_updates += 1
                                hit_level = level
                if not hit_level:
                    access = new_access(MemoryAccess)
                    access.access_type = code_type[code]
                    access.address = address
                    access.op = code_op[code]
                    access.value = values_pc[core_id][index]
                    access.think_instructions = int(gap)
                    access.size_bytes = code_size[code]
                    latency = resolve_slow(
                        core_id, access, line_addr, state, level, issue_time, stats.latency
                    )
            else:
                access = new_access(MemoryAccess)
                access.access_type = code_type[code]
                access.address = address
                access.op = code_op[code]
                access.value = values_pc[core_id][index]
                access.think_instructions = int(gap)
                access.size_bytes = code_size[code]
                latency = access_hot(core_id, access, issue_time, stats.latency)
                if latency.__class__ is int:
                    hit_level = latency

            if hit_level:
                latency_record = stats.latency
                latency_record.l1 += l1_latency
                if hit_level == 1:
                    latency = l1_hit_total
                else:
                    latency_record.l2 += l2_latency
                    latency = l2_hit_total
                stats.l1_hits += 1

            stats.accesses += 1
            stats.compute_cycles += think + overhead
            stats.memory_cycles += latency

            heappush(heap, (issue_time + overhead + latency, core_id))

            if hit_level:
                hit_streak += 1
                if hit_streak == REENTER_STREAK and reenter:
                    # Every core is hitting: hand the hot stretch back to the
                    # batched kernel.  The heap carries the live clocks.
                    for entry_clock, entry_id in heap:
                        cursors[entry_id].clock = entry_clock
                    cursor_state = [
                        (cursor.clock, cursor.next_index, cursor.phase)
                        for cursor in cursors
                    ]
                    return cursor_state, core_stats, list(heap), list(barrier_waiters)
            else:
                hit_streak = 0

        return self._finish(workload, cursors, core_stats)

    def _finish(
        self,
        workload: WorkloadTrace,
        cursors: Sequence[_CoreCursor],
        core_stats: List[CoreStats],
    ) -> SimulationResult:
        """Finalize the protocol and assemble the result structure."""
        self.protocol.finalize()
        # Telemetry fold (no-op when REPRO_OBS=off): one-way, after the
        # result statistics are final, so nothing here can feed the result.
        self.protocol.obs_fold_stats()

        for cursor, stats in zip(cursors, core_stats):
            stats.finish_time = cursor.clock

        run_cycles = max((stats.finish_time for stats in core_stats), default=0.0)
        interconnect = self.protocol.interconnect
        traffic = interconnect.traffic
        reductions = self.protocol.stat_full_reductions
        partials = self.protocol.stat_partial_reductions

        return SimulationResult(
            protocol=self.protocol.name,
            workload=workload.name,
            n_cores=len(core_stats),
            core_stats=core_stats,
            run_cycles=run_cycles,
            offchip_bytes=traffic.off_chip_bytes,
            onchip_bytes=traffic.on_chip_bytes,
            reductions=reductions,
            partial_reductions=partials,
            invalidations=self.protocol.stat_invalidations,
            downgrades=self.protocol.stat_downgrades,
            final_values=dict(self.protocol.memory_image) if self.track_values else None,
            params=dict(workload.params),
            bytes_by_type=dict(traffic.bytes_by_type),
            link_stats=interconnect.link_report(run_cycles),
        )

    @staticmethod
    def _release_barrier(
        cursors: Sequence[_CoreCursor], barrier_waiters: List[int], heap: List[tuple]
    ) -> None:
        """Advance every waiting core past the barrier at the barrier time."""
        if not barrier_waiters:
            return
        release_time = max(cursors[core_id].clock for core_id in barrier_waiters)
        for core_id in barrier_waiters:
            cursor = cursors[core_id]
            cursor.clock = release_time
            cursor.phase += 1
            heapq.heappush(heap, (cursor.clock, core_id))
        barrier_waiters.clear()


def simulate(
    workload: WorkloadTrace,
    config: SystemConfig,
    protocol: str = "MESI",
    *,
    track_values: bool = True,
) -> SimulationResult:
    """Convenience wrapper: build the protocol engine and run the workload."""
    engine = make_protocol(protocol, config, track_values=track_values)
    simulator = MulticoreSimulator(config, engine, track_values=track_values)
    return simulator.run(workload)


def compare_protocols(
    workload_factory: Callable[[int], WorkloadTrace],
    config: SystemConfig,
    protocols: Sequence[str] = ("MESI", "COUP"),
    *,
    track_values: bool = False,
    share_trace: bool = True,
) -> Dict[str, SimulationResult]:
    """Run the same workload under several protocols.

    The factory receives the core count and is called once: trace generation
    is deterministic and the simulator never mutates a trace, so the one
    materialized trace is shared across every protocol (the equivalence
    suite pins that results are bit-identical to per-protocol regeneration).
    ``share_trace=False`` restores the old regenerate-per-protocol behavior,
    which only matters for diagnosing a workload whose generation has become
    nondeterministic.
    """
    results: Dict[str, SimulationResult] = {}
    workload = workload_factory(config.n_cores) if share_trace else None
    for protocol in protocols:
        trace = workload if share_trace else workload_factory(config.n_cores)
        results[protocol] = simulate(
            trace, config, protocol, track_values=track_values
        )
    return results
