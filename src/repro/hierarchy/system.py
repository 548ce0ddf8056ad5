"""Cache hierarchy assembly for the simulated machine.

:class:`CacheHierarchy` instantiates the Table 1 machine: per-core private L1D
and L2 arrays, one banked L3 array per processor chip, one banked L4 array per
L4 chip, the DRAM model, and the interconnect.  Protocol engines use it to
decide where an access hits, which lines get evicted, and what the
level-by-level latency of a given protocol action is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.hierarchy.cache import SetAssociativeCache
from repro.hierarchy.memory import MainMemoryModel
from repro.interconnect.network import InterconnectModel
from repro.sim.config import SystemConfig


@dataclass(slots=True)
class PrivateLookupResult:
    """Where an access hit in the private hierarchy."""

    level: Optional[str]  # "L1", "L2", or None for a private miss

    @property
    def is_hit(self) -> bool:
        return self.level is not None


@dataclass(slots=True)
class EvictionNotice:
    """A line displaced from a private cache by a capacity eviction."""

    core_id: int
    line_addr: int
    from_level: str


class CacheHierarchy:
    """All cache arrays of the simulated machine plus placement helpers."""

    __slots__ = ("config", "l1", "l2", "l3", "l4", "memory", "interconnect")

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.l1 = [
            SetAssociativeCache(config.l1d, name=f"l1d.{core}")
            for core in range(config.n_cores)
        ]
        self.l2 = [
            SetAssociativeCache(config.l2, name=f"l2.{core}")
            for core in range(config.n_cores)
        ]
        self.l3 = [
            SetAssociativeCache(config.l3, name=f"l3.chip{chip}")
            for chip in range(config.n_chips)
        ]
        self.l4 = [
            SetAssociativeCache(config.l4, name=f"l4.chip{chip}")
            for chip in range(config.n_l4_chips)
        ]
        self.memory = MainMemoryModel(config)
        self.interconnect = InterconnectModel(config)

    # -- private caches -------------------------------------------------------

    def private_lookup_level(self, core_id: int, line_addr: int) -> int:
        """Check the core's L1 then L2; refresh LRU on a hit.

        Returns 1 for an L1 hit, 2 for an L2 hit, 0 for a private miss.  This
        is the hot-path form used by the protocol engines: it performs exactly
        the same lookups, statistics updates, and L1 refills as
        :meth:`private_lookup` but avoids allocating a result object.

        WARNING: faster hand-inlined twins of this probe live in the
        simulator, the batched kernel and the protocol engines (listed in
        ``CoherenceProtocol._private_level``'s docstring); any semantic
        change here must be applied to all of them (the golden-equivalence
        suite catches divergence).

        An L2 hit also fills the L1 (possibly evicting an L1 victim, which is
        harmless here because the L2 is inclusive of the L1).
        """
        if self.l1[core_id].lookup(line_addr) is not None:
            return 1
        if self.l2[core_id].lookup(line_addr) is not None:
            self.l1[core_id].insert(line_addr)
            return 2
        return 0

    def private_lookup(self, core_id: int, line_addr: int) -> PrivateLookupResult:
        """Allocating wrapper around :meth:`private_lookup_level`."""
        level = self.private_lookup_level(core_id, line_addr)
        if level == 1:
            return PrivateLookupResult("L1")
        if level == 2:
            return PrivateLookupResult("L2")
        return PrivateLookupResult(None)

    def private_fill_victim(self, core_id: int, line_addr: int) -> Optional[int]:
        """Install a line into the core's L1 and L2; return the L2 victim.

        Only L2 victims matter for coherence: the L2 is inclusive of the L1,
        so an L2 eviction implies the line is gone from the private hierarchy
        and the directory must be told (triggering writebacks or partial
        reductions).  L1 victims remain resident in the L2.  At most one line
        can be displaced per fill, so the victim is returned directly (or
        ``None``); this is the hot-path form used by the protocol engines.
        """
        victim_addr: Optional[int] = None
        l2_victim = self.l2[core_id].insert(line_addr)
        if l2_victim is not None:
            # Maintain inclusion: drop the victim from the L1 as well.
            victim_addr = l2_victim.line_addr
            self.l1[core_id].invalidate(victim_addr)
        self.l1[core_id].insert(line_addr)
        return victim_addr

    def private_fill(self, core_id: int, line_addr: int) -> List[EvictionNotice]:
        """Allocating wrapper around :meth:`private_fill_victim`."""
        victim_addr = self.private_fill_victim(core_id, line_addr)
        if victim_addr is None:
            return []
        return [EvictionNotice(core_id=core_id, line_addr=victim_addr, from_level="L2")]

    def private_invalidate(self, core_id: int, line_addr: int) -> None:
        """Remove a line from the core's private caches (coherence action)."""
        self.l1[core_id].invalidate(line_addr)
        self.l2[core_id].invalidate(line_addr)

    def private_present(self, core_id: int, line_addr: int) -> bool:
        return (
            self.l2[core_id].peek(line_addr) is not None
            or self.l1[core_id].peek(line_addr) is not None
        )

    # -- shared caches --------------------------------------------------------

    def l3_chip_of_core(self, core_id: int) -> int:
        return self.config.chip_of_core(core_id)

    def l3_lookup(self, chip_id: int, line_addr: int) -> bool:
        return self.l3[chip_id].lookup(line_addr) is not None

    def l3_fill(self, chip_id: int, line_addr: int) -> Optional[int]:
        """Install a line into a chip's L3; return the victim line if any."""
        victim = self.l3[chip_id].insert(line_addr)
        return victim.line_addr if victim is not None else None

    def l4_chip_of_line(self, line_addr: int) -> int:
        return self.config.l4_home_chip(line_addr)

    def l4_lookup(self, l4_chip: int, line_addr: int) -> bool:
        return self.l4[l4_chip].lookup(line_addr) is not None

    def l4_fill(self, l4_chip: int, line_addr: int) -> Optional[int]:
        victim = self.l4[l4_chip].insert(line_addr)
        return victim.line_addr if victim is not None else None

    # -- statistics -----------------------------------------------------------

    def reset_statistics(self) -> None:
        for cache in (*self.l1, *self.l2, *self.l3, *self.l4):
            cache.reset_statistics()
        self.memory.reset()
        self.interconnect.reset()

    def network_summary(self) -> Dict[str, object]:
        """Interconnect topology and traffic digest (diagnostics and tests).

        Includes the per-message-type byte breakdown, and — when the epoch
        contention model is enabled — whether contention charging is active.
        Per-link utilization needs the run length and is reported through
        ``SimulationResult.link_stats`` instead.
        """
        traffic = self.interconnect.traffic
        return {
            "topology": self.interconnect.topology.name,
            "contention": self.interconnect.contention is not None,
            "on_chip_bytes": traffic.on_chip_bytes,
            "off_chip_bytes": traffic.off_chip_bytes,
            "bytes_by_type": dict(traffic.bytes_by_type),
        }

    def cache_summary(self) -> Dict[str, float]:
        """Aggregate hit rates per level, for diagnostics and tests."""

        def rate(caches: List[SetAssociativeCache]) -> float:
            hits = sum(cache.hits for cache in caches)
            misses = sum(cache.misses for cache in caches)
            total = hits + misses
            return hits / total if total else 0.0

        return {
            "l1_hit_rate": rate(self.l1),
            "l2_hit_rate": rate(self.l2),
            "l3_hit_rate": rate(self.l3),
            "l4_hit_rate": rate(self.l4),
        }
