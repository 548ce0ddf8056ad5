"""The public one-access API resolves an access the way a simulation does.

``CoherenceProtocol.access`` and the simulator both resolve accesses through
the engine's one-access step (``CoherenceProtocol.make_step``).  This
property test pins the two together: random per-core streams, replayed
through ``engine.access`` in the scalar loop's order and at its issue
times, must leave the caches, the protocol statistics, the memory image and
the latency totals exactly as a simulation of the same streams does.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.commutative import CommutativeOp
from repro.sim.access import AccessType, MemoryAccess, WorkloadTrace
from repro.sim.config import CoreConfig, small_test_config
from repro.sim.simulator import MulticoreSimulator, make_protocol
from repro.sim.stats import LatencyBreakdown


@dataclass
class CoreTimingModel:
    """Reference statement of the issue-timing rule (paper Sec. 5.1).

    Non-memory instructions retire at a fixed CPI; atomic read-modify-writes
    pay a fixed µop overhead (load-linked, execute, store-conditional,
    fence) and commutative or remote updates a smaller one (no register
    result, but the implicit TSO fence).  :meth:`CoherenceProtocol.make_step`
    hoists the same constants from ``config.core`` with the same ``float``
    conversions; the replay below charges them through this model.
    """

    config: CoreConfig

    def think_cycles(self, access: MemoryAccess) -> float:
        """Cycles spent on the instructions preceding this access."""
        return access.think_instructions * self.config.cycles_per_instruction

    def issue_overhead(self, access: MemoryAccess) -> float:
        """Core-side overhead of the access itself, beyond memory latency."""
        if access.access_type is AccessType.ATOMIC_RMW:
            return float(self.config.atomic_uop_overhead)
        if access.access_type in (AccessType.COMMUTATIVE_UPDATE, AccessType.REMOTE_UPDATE):
            return float(self.config.commutative_uop_overhead)
        return 0.0

    def cycles_for(self, access: MemoryAccess, memory_latency: float) -> float:
        """Total cycles this access occupies the core."""
        return self.think_cycles(access) + self.issue_overhead(access) + memory_latency


def test_core_timing_model():
    model = CoreTimingModel(CoreConfig())
    load = MemoryAccess.load(0x0, think=10)
    atomic = MemoryAccess.atomic(0x0, CommutativeOp.ADD_I64, 1)
    commutative = MemoryAccess.commutative(0x0, CommutativeOp.ADD_I64, 1)
    assert model.think_cycles(load) == 5.0
    assert model.issue_overhead(load) == 0.0
    assert model.issue_overhead(atomic) == 12.0
    assert model.issue_overhead(commutative) == 4.0
    assert model.issue_overhead(atomic) > model.issue_overhead(commutative)
    assert model.cycles_for(load, memory_latency=40.0) == 45.0

#: Lines crowding L1 set 0 and two L2 sets of the tiny test machine, plus a
#: few neighbours, so fills evict and L2 hits refill the L1.
LINES = (0, 1, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96)

#: Each word of a line holds one type, updated by one op and stored with
#: values from that op's domain (the packed trace carries each exactly).
WORD_OPS = (
    (CommutativeOp.ADD_I64, st.integers(min_value=-1000, max_value=1000)),
    (CommutativeOp.ADD_I64, st.integers(min_value=-1000, max_value=1000)),
    (CommutativeOp.XOR_64, st.integers(min_value=0, max_value=1 << 40)),
    (CommutativeOp.XOR_64, st.integers(min_value=0, max_value=1 << 40)),
    (CommutativeOp.ADD_I32, st.integers(min_value=0, max_value=1000)),
    (CommutativeOp.ADD_F64, st.sampled_from([0.5, 1.25, -3.0, 1e-3])),
    (CommutativeOp.ADD_F64, st.sampled_from([0.5, 1.25, -3.0, 1e-3])),
    (CommutativeOp.ADD_F64, st.sampled_from([0.5, 1.25, -3.0, 1e-3])),
)


@st.composite
def accesses(draw):
    kind = draw(st.sampled_from(["load", "store", "atomic", "commutative", "remote"]))
    word = draw(st.integers(0, 7))
    address = draw(st.sampled_from(LINES)) * 64 + word * 8
    op, values = WORD_OPS[word]
    think = draw(st.integers(0, 5))
    if kind == "load":
        return MemoryAccess.load(address, think=think)
    if kind == "store":
        return MemoryAccess.store(address, draw(st.none() | values), think=think)
    build = {
        "atomic": MemoryAccess.atomic,
        "commutative": MemoryAccess.commutative,
        "remote": MemoryAccess.remote_update,
    }[kind]
    return build(address, op, draw(values), think=think)


def _cache_counts(engine, core_id):
    l1 = engine.hierarchy.l1[core_id]
    l2 = engine.hierarchy.l2[core_id]
    return (l1.hits, l1.misses, l1.evictions, l2.hits, l2.misses, l2.evictions)


def _stats(engine):
    return {
        name: value for name, value in vars(engine).items() if name.startswith("stat_")
    }


@given(
    protocol=st.sampled_from(["MESI", "COUP", "RMO"]),
    streams=st.lists(
        st.lists(accesses(), min_size=1, max_size=40), min_size=1, max_size=3
    ),
)
@settings(max_examples=150, deadline=None)
def test_access_replays_the_simulation(protocol, streams):
    n_cores = len(streams)
    config = small_test_config(n_cores)
    simulated = make_protocol(protocol, config, track_values=True)
    result = MulticoreSimulator(config, simulated, track_values=True).run(
        WorkloadTrace(name="streams", per_core=streams)
    )

    # Replay the scalar loop's schedule: the core with the smallest
    # (clock, core id) issues its next access after its think time.
    engine = make_protocol(protocol, config, track_values=True)
    core_model = CoreTimingModel(config.core)
    totals = [LatencyBreakdown() for _ in streams]
    memory_cycles = [0.0] * n_cores
    hits = [0] * n_cores
    finish = [0.0] * n_cores
    cursors = [iter(stream) for stream in streams]
    heap = [(0.0, core_id) for core_id in range(n_cores)]
    while heap:
        clock, core_id = heapq.heappop(heap)
        access = next(cursors[core_id], None)
        if access is None:
            finish[core_id] = clock
            continue
        issue_time = clock + core_model.think_cycles(access)
        outcome = engine.access(core_id, access, issue_time)
        latency = outcome.total_latency
        for name in LatencyBreakdown.__slots__:
            total = getattr(totals[core_id], name) + getattr(outcome.latency, name)
            setattr(totals[core_id], name, total)
        memory_cycles[core_id] += latency
        hits[core_id] += outcome.private_hit
        heapq.heappush(
            heap, (issue_time + core_model.issue_overhead(access) + latency, core_id)
        )
    engine.finalize()

    assert _stats(engine) == _stats(simulated)
    assert engine.memory_image == simulated.memory_image == result.final_values
    for core_id, stats in enumerate(result.core_stats):
        assert _cache_counts(engine, core_id) == _cache_counts(simulated, core_id)
        assert totals[core_id] == stats.latency
        assert memory_cycles[core_id] == stats.memory_cycles
        assert hits[core_id] == stats.l1_hits
        assert finish[core_id] == stats.finish_time
