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
from typing import Callable, Dict, List, Sequence, Type, Union

from repro import obs as _obs
from repro.core.mesi import MesiProtocol
from repro.core.meusi import MeusiProtocol
from repro.core.protocol import CoherenceProtocol
from repro.core.rmo import RmoProtocol
from repro.sim.access import WorkloadTrace
from repro.sim.columnar import ColumnarTrace, as_columnar, decode_values
from repro.sim.config import SystemConfig
from repro.sim.stats import CoreStats, SimulationResult


#: Consecutive private hits (across all cores) after which the ``auto``
#: cold-start stint hands the run to the batched kernel: a long global
#: streak means every core has left its cold misses behind.
COLD_START_STREAK = 512

#: Accesses per core the ``auto`` cold-start stint decodes.  Every run opens
#: with cold misses (one per core and line), which would fill the kernel's
#: first probation interval with slow events and bail a hit-run workload at
#: once.  The scalar loop retires them instead and hands the run to the
#: kernel at the first :data:`COLD_START_STREAK` hit streak, or when a core
#: exhausts this prefix.  The bound keeps the stint cheap: decoding a whole
#: 1.92M-access trace costs 0.22-0.38 s.
COLD_START_ACCESSES = 4096


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

    __slots__ = ("config", "protocol", "track_values")

    def __init__(
        self,
        config: SystemConfig,
        protocol: CoherenceProtocol,
        *,
        track_values: bool = True,
    ) -> None:
        self.config = config
        self.protocol = protocol
        self.track_values = track_values

    def run(self, workload: Union[WorkloadTrace, ColumnarTrace]) -> SimulationResult:
        """Simulate the workload to completion and return statistics.

        Accepts either trace representation: an object-form
        :class:`WorkloadTrace` (a hand-built trace, or the view
        ``Workload.generate`` unpacks) is packed on entry, so every run goes
        through :meth:`_run_columnar`.
        """
        return self._run_columnar(as_columnar(workload))

    def _run_columnar(self, workload: ColumnarTrace) -> SimulationResult:
        """Simulate a columnar trace via the batched kernel or the scalar loop.

        The three-tier hot path: the batched kernel (:mod:`repro.sim.kernel`)
        advances whole hit-runs with vectorized scans, resolving run
        boundaries through the engine's one-access step
        (:meth:`CoherenceProtocol.make_step`), which in turn drops into
        :meth:`CoherenceProtocol.resolve_slow` for protocol action.  The
        kernel is used when the engine opts in (``SUPPORTS_BATCH_KERNEL``),
        the machine's timing constants are dyadic (``exact_timing``) and
        ``REPRO_SIM_KERNEL`` allows it.  An ``auto`` run is a straight line
        of at most three stints on the same exact state: a scalar cold-start
        stint over the first :data:`COLD_START_ACCESSES` accesses of each
        core, handing off at the first :data:`COLD_START_STREAK` hit streak
        or when a core exhausts its prefix; then one kernel stint; and, if
        the kernel bails (it batches too few hits per slow event, see its
        ``BAIL_*`` constants) or reaches its exactness guard, the scalar
        loop to the end of the run.  ``batch`` skips the cold start and
        never bails, but also finishes in the scalar loop past the guard.
        Every rule counts simulated work only, so the path a trace takes
        never depends on the host (tests/sim/test_dispatch.py).  All paths
        are bit-identical (golden suite plus the batch-boundary and
        cold-start grids in tests/sim/test_batch_kernel.py).
        """
        if workload.n_cores > self.config.n_cores:
            raise ValueError(
                f"workload uses {workload.n_cores} cores but the machine has "
                f"{self.config.n_cores}"
            )
        workload.validate()

        from repro.sim.kernel import BatchedKernel, exact_timing, kernel_mode

        mode = kernel_mode()
        if (
            mode == "scalar"
            or not self.protocol.SUPPORTS_BATCH_KERNEL
            or not exact_timing(self.config)
        ):
            return self._run_columnar_scalar(workload)

        obs_reg = _obs.get_registry()
        force = mode == "batch"
        state = None
        if not force:
            if obs_reg is not None:
                obs_reg.inc("sim.stint.cold_start")
            outcome = self._run_columnar_scalar(workload, prefix=COLD_START_ACCESSES)
            if isinstance(outcome, SimulationResult):
                return outcome
            state = outcome
        if obs_reg is not None:
            obs_reg.inc("kernel.stint.enter")
        kernel = BatchedKernel(self, workload, force=force, resume=state)
        state = kernel.run()
        if state is not None:
            if obs_reg is not None:
                obs_reg.inc("sim.stint.scalar")
            return self._run_columnar_scalar(workload, resume=state)
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

    def _run_columnar_scalar(self, workload: ColumnarTrace, resume=None, prefix=None):
        """The scalar simulation loop: one access per iteration over raw columns.

        The loop owns scheduling, phase barriers, the cold-start prefix and
        the hit streak; each access is retired by the engine's step
        (:meth:`CoherenceProtocol.make_step`), which charges its issue
        timing, private-hit or ``resolve_slow`` latency and counters to the
        core's :class:`CoreStats` and returns its completion time.  The
        streak reads ``stats.l1_hits``, which the step bumps once per
        private hit.  The batched kernel retires its boundary accesses and
        short hit-run slices through the same step; the golden equivalence
        suite pins both paths bit-identical.

        ``resume`` is a handoff from a bailed-out batched-kernel run:
        ``(per-core (clock, next_index, phase), core_stats, heap entries,
        barrier-waiter ids)``.  The kernel maintains exactly this loop's
        state, so resuming mid-run continues the identical simulation to
        its end.

        ``prefix`` makes this the cold-start stint, which returns the same
        handoff shape for the kernel instead of a result: only the first
        ``prefix`` accesses of each core are decoded, and the stint hands
        off after :data:`COLD_START_STREAK` consecutive private hits, or
        when a core reaches the end of its decoded prefix (before the end
        of its trace), which is put back on the heap untouched.
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
        columns = workload.columns
        if prefix is not None:
            columns = [column[:prefix] for column in columns]
        codes_pc, addrs_pc, gaps_pc, values_pc = self._decode_columns(columns)
        trace_lens = [len(column) for column in workload.columns]
        decoded_lens = [len(codes) for codes in codes_pc]

        heappush = heapq.heappush
        heappop = heapq.heappop
        # Built per run, after any instrumentation wrapped resolve_slow.
        step = self.protocol.make_step()

        # Min-heap of (clock, core_id) for cores that still have work to do.
        # The core id is an explicit part of every heap entry so that cores
        # whose clocks are exactly equal are always popped in ascending
        # core-id order — the interleaving is fully deterministic, and the
        # scalar loop and the batched kernel can never diverge on ties
        # (pinned by tests/sim/test_simulator.py::TestCoreSelectionTieBreak).
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

            if index >= decoded_lens[core_id]:
                if index < trace_lens[core_id]:
                    # Cold start: the core exhausted its decoded prefix, so
                    # the rest of the run belongs to the batched kernel.
                    heappush(heap, (clock, core_id))
                    return self._handoff(cursors, core_stats, heap, barrier_waiters)
                cursor.clock = clock
                if cursor.phase < n_phases:
                    barrier_waiters.append(core_id)
                continue

            if cursor.phase < n_phases:
                if index >= phase_boundaries[cursor.phase][core_id]:
                    cursor.clock = clock
                    barrier_waiters.append(core_id)
                    continue

            cursor.next_index = index + 1
            stats = core_stats[core_id]
            hits = stats.l1_hits
            completion = step(
                core_id,
                codes_pc[core_id][index],
                addrs_pc[core_id][index],
                values_pc[core_id][index],
                gaps_pc[core_id][index],
                clock,
                stats,
            )
            heappush(heap, (completion, core_id))

            if stats.l1_hits != hits:
                hit_streak += 1
                if hit_streak == COLD_START_STREAK and prefix is not None:
                    # Every core is past its cold misses: hand the run to
                    # the batched kernel.
                    return self._handoff(cursors, core_stats, heap, barrier_waiters)
            else:
                hit_streak = 0

        return self._finish(workload, cursors, core_stats)

    @staticmethod
    def _decode_columns(columns) -> tuple:
        """Per-core (codes, addresses, gaps, values) Python lists."""
        return (
            [column["type_code"].tolist() for column in columns],
            [column["address"].tolist() for column in columns],
            [column["compute_gap"].tolist() for column in columns],
            [decode_values(column) for column in columns],
        )

    @staticmethod
    def _handoff(
        cursors: Sequence[_CoreCursor],
        core_stats: List[CoreStats],
        heap: List[tuple],
        barrier_waiters: List[int],
    ) -> tuple:
        """Package the scalar loop's state for the batched kernel.

        The heap carries the live clocks of the runnable cores.
        """
        for entry_clock, entry_id in heap:
            cursors[entry_id].clock = entry_clock
        cursor_state = [
            (cursor.clock, cursor.next_index, cursor.phase) for cursor in cursors
        ]
        return cursor_state, core_stats, list(heap), list(barrier_waiters)

    def _finish(
        self,
        workload: ColumnarTrace,
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
    workload: Union[WorkloadTrace, ColumnarTrace],
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
) -> Dict[str, SimulationResult]:
    """Run the same workload under several protocols.

    The factory receives the core count and is called once: trace generation
    is deterministic and the simulator never mutates a trace, so the one
    materialized trace is shared across every protocol (the equivalence
    suite pins that results are bit-identical to per-protocol regeneration).
    """
    workload = workload_factory(config.n_cores)
    return {
        protocol: simulate(workload, config, protocol, track_values=track_values)
        for protocol in protocols
    }
