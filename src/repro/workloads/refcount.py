"""Reference-counting microbenchmarks (Sec. 5.4, Fig. 13).

Two microbenchmarks model the two reference-counting regimes the paper
studies:

* **Immediate deallocation** (:class:`ImmediateRefcountWorkload`): each thread
  performs a fixed number of increment and decrement-and-read operations over
  a pool of shared counters, choosing a random counter each iteration.  The
  low-count variant keeps 0 or 1 references per thread and object (surpluses
  oscillate around zero, the worst case for SNZI); the high-count variant
  keeps up to five (SNZI's best case).  Variants: flat atomic counters
  (``XADD``), COUP commutative adds (reads trigger reductions), and SNZI
  trees.

* **Delayed deallocation** (:class:`DelayedRefcountWorkload`): threads perform
  only increments/decrements during an epoch, then check which counters are
  zero at epoch boundaries.  Variants: COUP (commutative adds plus a
  commutative-OR "modified" bitmap, read between epochs) and Refcache
  (per-thread delta caches flushed at epoch end).
"""

from __future__ import annotations

import enum
from typing import Dict, List

import numpy as np

from repro.core.commutative import CommutativeOp
from repro.sim.access import AccessType
from repro.sim.columnar import VK_INT, VK_UINT, ColumnBuilder, ColumnarTrace, code_for
from repro.software.refcache import RefcacheThreadCache
from repro.software.snzi import SnziTree
from repro.workloads.base import UpdateStyle, Workload


class RefcountScheme(enum.Enum):
    """Reference-counting implementation being modelled."""

    XADD = "xadd"
    COUP = "coup"
    SNZI = "snzi"
    REFCACHE = "refcache"


class CountMode(enum.Enum):
    """How many references each thread holds per object (Fig. 13a vs 13b)."""

    LOW = "low"
    HIGH = "high"


#: Increment probability given the number of references currently held, in
#: high-count mode (from the paper's description of the microbenchmark).
HIGH_COUNT_INCREMENT_PROBABILITY = {0: 1.0, 1: 0.7, 2: 0.5, 3: 0.5, 4: 0.3, 5: 0.0}


class ImmediateRefcountWorkload(Workload):
    """Immediate-deallocation reference counting over shared counters."""

    name = "refcount-immediate"
    comm_op_label = "64b int add"

    THINK_PER_OP = 15

    def __init__(
        self,
        n_counters: int = 1024,
        updates_per_thread: int = 2000,
        *,
        scheme: RefcountScheme = RefcountScheme.COUP,
        count_mode: CountMode = CountMode.LOW,
        counter_bytes: int = 8,
        seed: int = 42,
    ) -> None:
        style = (
            UpdateStyle.COMMUTATIVE if scheme is RefcountScheme.COUP else UpdateStyle.ATOMIC
        )
        super().__init__(seed=seed, update_style=style)
        if n_counters <= 0 or updates_per_thread <= 0:
            raise ValueError("n_counters and updates_per_thread must be positive")
        if scheme is RefcountScheme.REFCACHE:
            raise ValueError("Refcache applies to the delayed-deallocation benchmark")
        self.n_counters = n_counters
        self.updates_per_thread = updates_per_thread
        self.scheme = scheme
        self.count_mode = count_mode
        self.counter_bytes = counter_bytes
        self.op = CommutativeOp.ADD_I64

    def _choose_increment(self, rng: np.random.Generator, held: int) -> bool:
        if self.count_mode is CountMode.LOW:
            return held == 0
        probability = HIGH_COUNT_INCREMENT_PROBABILITY.get(min(held, 5), 0.0)
        return bool(rng.random() < probability)

    def _build_columnar(self, n_cores: int) -> ColumnarTrace:
        """Each thread's increments and decrement-and-reads, in draw order.

        The per-update RNG draws depend on the evolving held-reference state,
        so the loop stays sequential and appends raw column values.  A flat
        counter takes one update per increment, and an update plus a load per
        decrement-and-read; under SNZI each counter is a :class:`SnziTree`,
        whose first node update carries the operation's think time.
        """
        think = self.THINK_PER_OP
        snzi_trees = None
        if self.scheme is RefcountScheme.SNZI:
            snzi_trees = [
                SnziTree(self.addresses, counter, n_cores)
                for counter in range(self.n_counters)
            ]
        else:
            base = self.addresses.region("refcount_counters")
            update_code = self._update_code(1)
            load_code = self._load_code(8)
            counter_bytes = self.counter_bytes
        columns = []
        for core_id in range(n_cores):
            rng = self._rng(1000 + core_id)
            held: Dict[int, int] = {}
            builder = ColumnBuilder()
            append = builder.append
            for _ in range(self.updates_per_thread):
                counter = int(rng.integers(0, self.n_counters))
                references = held.get(counter, 0)
                increment = self._choose_increment(rng, references)
                held[counter] = references + 1 if increment else max(0, references - 1)
                if snzi_trees is None:
                    address = base + counter * counter_bytes
                    append(update_code, address, 1 if increment else -1, think)
                    if not increment:
                        append(load_code, address, 0, 2)
                elif increment:
                    snzi_trees[counter].arrive(builder, core_id, think)
                else:
                    snzi_trees[counter].depart(builder, core_id, think)
                    snzi_trees[counter].query(builder, core_id)
            columns.append(builder.build())
        return ColumnarTrace(
            name=f"{self.name}-{self.scheme.value}-{self.count_mode.value}",
            columns=columns,
            params={
                "n_counters": self.n_counters,
                "updates_per_thread": self.updates_per_thread,
                "scheme": self.scheme.value,
                "count_mode": self.count_mode.value,
            },
        )


class DelayedRefcountWorkload(Workload):
    """Delayed-deallocation reference counting with per-epoch zero checks."""

    name = "refcount-delayed"
    comm_op_label = "64b int add + 64b OR"

    THINK_PER_OP = 12
    BITS_PER_WORD = 64

    def __init__(
        self,
        n_counters: int = 4096,
        updates_per_epoch: int = 100,
        n_epochs: int = 2,
        *,
        scheme: RefcountScheme = RefcountScheme.COUP,
        seed: int = 42,
    ) -> None:
        style = (
            UpdateStyle.COMMUTATIVE if scheme is RefcountScheme.COUP else UpdateStyle.ATOMIC
        )
        super().__init__(seed=seed, update_style=style)
        if scheme not in (RefcountScheme.COUP, RefcountScheme.REFCACHE):
            raise ValueError("delayed deallocation compares COUP against Refcache")
        if min(n_counters, updates_per_epoch, n_epochs) <= 0:
            raise ValueError("workload parameters must be positive")
        self.n_counters = n_counters
        self.updates_per_epoch = updates_per_epoch
        self.n_epochs = n_epochs
        self.scheme = scheme
        self.op = CommutativeOp.ADD_I64

    def _counter_address(self, counter: int) -> int:
        return self.addresses.element("delayed_counters", counter, 8)

    def _bitmap_address(self, counter: int) -> int:
        word = counter // self.BITS_PER_WORD
        return self.addresses.element("delayed_modified_bitmap", word, 8)

    def _build_columnar(self, n_cores: int) -> ColumnarTrace:
        """Per epoch, an update phase and a zero-check (COUP) or flush phase.

        Under COUP each update is a commutative add to the counter plus a
        commutative OR of its bit in the modified bitmap, and the end of the
        epoch reads each modified counter's bitmap word and counter; under
        Refcache each thread updates its :class:`RefcacheThreadCache` and
        flushes it at the end of the epoch.
        """
        comm = AccessType.COMMUTATIVE_UPDATE
        add_code = code_for(comm, CommutativeOp.ADD_I64, 8, VK_INT)
        or_code_int = code_for(comm, CommutativeOp.OR_64, 8, VK_INT)
        or_code_uint = code_for(comm, CommutativeOp.OR_64, 8, VK_UINT)
        load_code = self._load_code(8)
        builders = [ColumnBuilder() for _ in range(n_cores)]
        phase_boundaries: List[List[int]] = []
        caches = [
            RefcacheThreadCache(self.addresses, core_id) for core_id in range(n_cores)
        ]
        for epoch in range(self.n_epochs):
            modified_per_core: List[set] = [set() for _ in range(n_cores)]
            for core_id in range(n_cores):
                rng = self._rng((epoch + 1) * 10_000 + core_id)
                builder = builders[core_id]
                for _ in range(self.updates_per_epoch):
                    counter = int(rng.integers(0, self.n_counters))
                    delta = 1 if rng.random() < 0.5 else -1
                    if self.scheme is RefcountScheme.COUP:
                        builder.append(
                            add_code, self._counter_address(counter), delta, self.THINK_PER_OP
                        )
                        bit = counter % self.BITS_PER_WORD
                        builder.append(
                            or_code_uint if bit == 63 else or_code_int,
                            self._bitmap_address(counter),
                            (1 << bit) - (1 << 64 if bit == 63 else 0),
                            1,
                        )
                        modified_per_core[core_id].add(counter)
                    else:
                        caches[core_id].update(builder, counter, delta)
            phase_boundaries.append([len(builder) for builder in builders])

            for core_id in range(n_cores):
                builder = builders[core_id]
                if self.scheme is RefcountScheme.COUP:
                    for counter in sorted(modified_per_core[core_id]):
                        builder.append(load_code, self._bitmap_address(counter), 0, 3)
                        builder.append(load_code, self._counter_address(counter), 0, 3)
                else:
                    caches[core_id].flush(builder, self._counter_address)
            phase_boundaries.append([len(builder) for builder in builders])

        return ColumnarTrace(
            name=f"{self.name}-{self.scheme.value}",
            columns=[builder.build() for builder in builders],
            params={
                "n_counters": self.n_counters,
                "updates_per_epoch": self.updates_per_epoch,
                "n_epochs": self.n_epochs,
                "scheme": self.scheme.value,
            },
            phase_boundaries=phase_boundaries,
        )
