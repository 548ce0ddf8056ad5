"""Trace-driven multicore timing simulation.

The simulator module is imported lazily (PEP 562) because protocol engines in
:mod:`repro.core` import :mod:`repro.sim.config`; importing the simulator
eagerly here would close an import cycle while those modules are still
initialising.
"""

from repro.sim.access import AccessType, MemoryAccess, Trace, WorkloadTrace
from repro.sim.config import (
    CacheConfig,
    CoreConfig,
    MemoryConfig,
    NetworkConfig,
    ReductionUnitConfig,
    SystemConfig,
    small_test_config,
    table1_config,
)
from repro.sim.stats import AMAT_COMPONENTS, CoreStats, LatencyBreakdown, SimulationResult

__all__ = [
    "ACCESS_DTYPE",
    "AMAT_COMPONENTS",
    "AccessType",
    "CacheConfig",
    "ColumnarTrace",
    "CoreConfig",
    "CoreStats",
    "LatencyBreakdown",
    "MemoryAccess",
    "MemoryConfig",
    "MulticoreSimulator",
    "NetworkConfig",
    "PROTOCOLS",
    "ReductionUnitConfig",
    "SimulationResult",
    "SystemConfig",
    "Trace",
    "WorkloadTrace",
    "compare_protocols",
    "make_protocol",
    "simulate",
    "small_test_config",
    "table1_config",
]

_LAZY_SIMULATOR_NAMES = {
    "MulticoreSimulator",
    "PROTOCOLS",
    "compare_protocols",
    "make_protocol",
    "simulate",
}

_LAZY_COLUMNAR_NAMES = {"ACCESS_DTYPE", "ColumnarTrace", "TraceCodecError"}


def __getattr__(name: str):
    if name in _LAZY_SIMULATOR_NAMES:
        from repro.sim import simulator

        return getattr(simulator, name)
    if name in _LAZY_COLUMNAR_NAMES:
        from repro.sim import columnar

        return getattr(columnar, name)
    raise AttributeError(f"module 'repro.sim' has no attribute {name!r}")
