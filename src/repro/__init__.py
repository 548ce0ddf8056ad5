"""COUP reproduction: commutativity-aware cache coherence.

This package reproduces the system described in "Exploiting Commutativity to
Reduce the Cost of Updates to Shared Data in Cache-Coherent Systems"
(MICRO 2015): the MEUSI coherence protocol with update-only permission,
a trace-driven multicore memory-hierarchy simulator, the paper's workloads
and software baselines, a protocol verification substrate, and the experiment
harness that regenerates every table and figure of the evaluation.

Quick start::

    from repro import table1_config, simulate
    from repro.workloads import HistogramWorkload

    config = table1_config(n_cores=16)
    trace = HistogramWorkload(n_bins=512, n_items=20_000).generate_columnar(config.n_cores)
    mesi = simulate(trace, config, protocol="MESI")
    coup = simulate(trace, config, protocol="COUP")
    print(coup.speedup_over(mesi))
"""

from repro.core.commutative import CommutativeOp, DeltaBuffer
from repro.core.mesi import MesiProtocol
from repro.core.meusi import MeusiProtocol
from repro.core.rmo import RmoProtocol
from repro.core.states import LineMode, RequestType, StableState
from repro.sim.access import AccessType, MemoryAccess, WorkloadTrace
from repro.sim.config import (
    CacheConfig,
    ReductionUnitConfig,
    SystemConfig,
    small_test_config,
    table1_config,
)
from repro.sim.simulator import MulticoreSimulator, compare_protocols, make_protocol, simulate
from repro.sim.stats import SimulationResult

__version__ = "1.0.0"

__all__ = [
    "AccessType",
    "CacheConfig",
    "CommutativeOp",
    "DeltaBuffer",
    "LineMode",
    "MemoryAccess",
    "MesiProtocol",
    "MeusiProtocol",
    "MulticoreSimulator",
    "ReductionUnitConfig",
    "RequestType",
    "RmoProtocol",
    "SimulationResult",
    "StableState",
    "SystemConfig",
    "WorkloadTrace",
    "compare_protocols",
    "make_protocol",
    "simulate",
    "small_test_config",
    "table1_config",
]
