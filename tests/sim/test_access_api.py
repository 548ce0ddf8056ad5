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

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.commutative import CommutativeOp
from repro.sim.access import MemoryAccess, WorkloadTrace
from repro.sim.config import small_test_config
from repro.sim.core_model import CoreTimingModel
from repro.sim.simulator import MulticoreSimulator, make_protocol
from repro.sim.stats import LatencyBreakdown

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
