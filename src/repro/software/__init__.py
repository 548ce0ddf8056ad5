"""Software baseline models: privatization, SNZI, Refcache."""

from repro.software.privatization import (
    PrivatizationLevel,
    PrivatizedReductionBuilder,
    PrivatizedReductionPlan,
    socket_of_core,
)
from repro.software.refcache import RefcacheConfig, RefcacheThreadCache
from repro.software.snzi import SnziTree

__all__ = [
    "PrivatizationLevel",
    "PrivatizedReductionBuilder",
    "PrivatizedReductionPlan",
    "RefcacheConfig",
    "RefcacheThreadCache",
    "SnziTree",
    "socket_of_core",
]
