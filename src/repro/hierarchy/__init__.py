"""Cache hierarchy substrate: cache arrays, DRAM model, machine assembly."""

from repro.hierarchy.cache import SetAssociativeCache
from repro.hierarchy.memory import MainMemoryModel, MemoryAccessTiming
from repro.hierarchy.system import CacheHierarchy

__all__ = [
    "CacheHierarchy",
    "MainMemoryModel",
    "MemoryAccessTiming",
    "SetAssociativeCache",
]
