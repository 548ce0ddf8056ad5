"""Synthetic microbenchmark workloads.

These tiny workloads exercise individual protocol behaviours in isolation and
are used heavily by unit and integration tests, the quickstart example, and as
building blocks for ablation benchmarks:

* :class:`SharedCounterWorkload` — every core hammers one counter (the Fig. 1
  motivating example).
* :class:`MultiCounterWorkload` — updates spread over many counters with a
  configurable skew.
* :class:`FalseSharingWorkload` — cores update distinct words of one line.
* :class:`ScalarReductionWorkload` — a scalar reduction variable with a final
  read (the case Sec. 4.1 notes COUP barely helps).
* :class:`ReadOnlyWorkload` — no updates at all (sanity baseline: COUP must
  not change anything).
* :class:`InterleavedReadUpdateWorkload` — configurable numbers of updates
  between reads, used to study the update-run-length crossover.
* :class:`MixedOpWorkload` — alternating commutative types on one line,
  exercising the type-switch (NN) reductions.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.commutative import CommutativeOp
from repro.sim.access import AccessType
from repro.sim.columnar import (
    ACCESS_DTYPE,
    VK_INT,
    VK_UINT,
    ColumnarTrace,
    code_for,
    make_columns,
)
from repro.workloads.base import UpdateStyle, Workload


class SharedCounterWorkload(Workload):
    """All cores repeatedly update a single shared counter; core 0 reads it last."""

    name = "shared-counter"
    comm_op_label = "64b int add"

    def __init__(
        self,
        updates_per_core: int = 500,
        *,
        think: int = 5,
        read_at_end: bool = True,
        seed: int = 42,
        update_style: UpdateStyle = UpdateStyle.COMMUTATIVE,
    ) -> None:
        super().__init__(seed=seed, update_style=update_style)
        self.updates_per_core = updates_per_core
        self.think = think
        self.read_at_end = read_at_end
        self.op = CommutativeOp.ADD_I64

    @property
    def counter_address(self) -> int:
        return self.addresses.element("counter", 0, 8)

    def _build_columnar(self, n_cores: int) -> ColumnarTrace:
        address = self.counter_address
        update_code = self._update_code(1)
        columns: List[np.ndarray] = []
        for core_id in range(n_cores):
            extra = 1 if self.read_at_end and core_id == 0 else 0
            array = np.empty(self.updates_per_core + extra, dtype=ACCESS_DTYPE)
            array["type_code"] = update_code
            array["address"] = address
            array["value_delta"] = 1
            array["compute_gap"] = self.think
            array["phase"] = 0
            if extra:
                array["type_code"][-1] = self._load_code(8)
                array["value_delta"][-1] = 0
                array["compute_gap"][-1] = 2
            columns.append(array)
        # The read happens in a second phase so it observes all updates.
        boundaries = (
            [[self.updates_per_core] * n_cores] if self.read_at_end else None
        )
        return ColumnarTrace(
            name=self.name,
            columns=columns,
            params={"updates_per_core": self.updates_per_core},
            phase_boundaries=boundaries,
        )

    def reference_result(self) -> Optional[Dict[int, object]]:
        return None  # Depends on the core count; tests compute it inline.

    def expected_total(self, n_cores: int) -> int:
        """Final counter value after all updates complete."""
        return self.updates_per_core * n_cores


class MultiCounterWorkload(Workload):
    """Updates spread over ``n_counters`` with optional hot-spot skew."""

    name = "multi-counter"
    comm_op_label = "64b int add"

    def __init__(
        self,
        n_counters: int = 64,
        updates_per_core: int = 500,
        *,
        hot_fraction: float = 0.0,
        think: int = 5,
        seed: int = 42,
        update_style: UpdateStyle = UpdateStyle.COMMUTATIVE,
    ) -> None:
        super().__init__(seed=seed, update_style=update_style)
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        self.n_counters = n_counters
        self.updates_per_core = updates_per_core
        self.hot_fraction = hot_fraction
        self.think = think
        self.op = CommutativeOp.ADD_I64

    def counter_address(self, index: int) -> int:
        return self.addresses.element("counters", index, 8)

    def _build_columnar(self, n_cores: int) -> ColumnarTrace:
        base = self.addresses.region("counters")
        update_code = self._update_code(1)
        columns: List[np.ndarray] = []
        for core_id in range(n_cores):
            rng = self._rng(core_id)
            if not self.hot_fraction:
                # One bounded-integer draw per update, which numpy generates
                # identically whether requested one at a time or as a batch.
                indices = rng.integers(
                    0, self.n_counters, size=self.updates_per_core
                ).astype(np.uint64)
            else:
                # The hot-spot draw is conditional (an extra uniform per
                # update, and no integer draw for hot updates), so the draw
                # sequence is replayed element-wise.
                drawn = []
                for _ in range(self.updates_per_core):
                    if rng.random() < self.hot_fraction:
                        drawn.append(0)
                    else:
                        drawn.append(int(rng.integers(0, self.n_counters)))
                indices = np.asarray(drawn, dtype=np.uint64)
            columns.append(
                make_columns(update_code, base + indices * 8, 1, self.think)
            )
        return ColumnarTrace(
            name=self.name,
            columns=columns,
            params={
                "n_counters": self.n_counters,
                "updates_per_core": self.updates_per_core,
                "hot_fraction": self.hot_fraction,
            },
        )

    def expected_total(self, n_cores: int) -> int:
        return self.updates_per_core * n_cores


class FalseSharingWorkload(Workload):
    """Each core updates its own word, but all words share one cache line."""

    name = "false-sharing"
    comm_op_label = "64b int add"

    def __init__(
        self,
        updates_per_core: int = 300,
        *,
        think: int = 5,
        seed: int = 42,
        update_style: UpdateStyle = UpdateStyle.COMMUTATIVE,
    ) -> None:
        super().__init__(seed=seed, update_style=update_style)
        self.updates_per_core = updates_per_core
        self.think = think
        self.op = CommutativeOp.ADD_I64

    def word_address(self, core_id: int) -> int:
        # Eight 8-byte words share each 64-byte line.
        return self.addresses.element("false_sharing", core_id, 8)

    def _build_columnar(self, n_cores: int) -> ColumnarTrace:
        base = self.addresses.region("false_sharing")
        update_code = self._update_code(1)
        columns = [
            make_columns(
                update_code,
                np.full(self.updates_per_core, base + core_id * 8, dtype=np.uint64),
                1,
                self.think,
            )
            for core_id in range(n_cores)
        ]
        return ColumnarTrace(
            name=self.name,
            columns=columns,
            params={"updates_per_core": self.updates_per_core},
        )


class ScalarReductionWorkload(Workload):
    """A single scalar reduction variable: the case where COUP barely helps.

    Each core accumulates a local partial sum in registers (modelled as think
    time) and performs only one update to the shared scalar at the end, so the
    shared-data traffic is negligible under any scheme.
    """

    name = "scalar-reduction"
    comm_op_label = "64b int add"

    def __init__(
        self,
        items_per_core: int = 2000,
        *,
        seed: int = 42,
        update_style: UpdateStyle = UpdateStyle.COMMUTATIVE,
    ) -> None:
        super().__init__(seed=seed, update_style=update_style)
        self.items_per_core = items_per_core
        self.op = CommutativeOp.ADD_I64

    @property
    def scalar_address(self) -> int:
        return self.addresses.element("scalar", 0, 8)

    def _input_address(self, core_id: int, index: int) -> int:
        return self.addresses.element(f"scalar_input_{core_id}", index, 8)

    def _build_columnar(self, n_cores: int) -> ColumnarTrace:
        load_code = self._load_code(8)
        columns: List[np.ndarray] = []
        for core_id in range(n_cores):
            # Region-allocation order: the core's input region first, then
            # (on core 0) the shared scalar.
            input_base = self.addresses.region(f"scalar_input_{core_id}")
            scalar_address = self.scalar_address
            array = np.empty(self.items_per_core + 1, dtype=ACCESS_DTYPE)
            array["type_code"][:-1] = load_code
            array["address"][:-1] = input_base + np.arange(
                self.items_per_core, dtype=np.uint64
            ) * 8
            array["value_delta"][:-1] = 0
            array["compute_gap"][:-1] = 4
            array["type_code"][-1] = self._update_code(self.items_per_core)
            array["address"][-1] = scalar_address
            array["value_delta"][-1] = self.items_per_core
            array["compute_gap"][-1] = 2
            array["phase"] = 0
            columns.append(array)
        return ColumnarTrace(
            name=self.name,
            columns=columns,
            params={"items_per_core": self.items_per_core},
        )


class ReadOnlyWorkload(Workload):
    """All cores read a shared array; COUP must behave identically to MESI."""

    name = "read-only"
    comm_op_label = "none"

    def __init__(
        self,
        n_elements: int = 256,
        reads_per_core: int = 1000,
        *,
        seed: int = 42,
    ) -> None:
        super().__init__(seed=seed, update_style=UpdateStyle.COMMUTATIVE)
        self.n_elements = n_elements
        self.reads_per_core = reads_per_core

    def element_address(self, index: int) -> int:
        return self.addresses.element("readonly_array", index, 8)

    def _build_columnar(self, n_cores: int) -> ColumnarTrace:
        base = self.addresses.region("readonly_array")
        load_code = self._load_code(8)
        columns = []
        for core_id in range(n_cores):
            rng = self._rng(core_id)
            indices = rng.integers(0, self.n_elements, size=self.reads_per_core)
            columns.append(
                make_columns(load_code, base + indices.astype(np.uint64) * 8, 0, 3)
            )
        return ColumnarTrace(
            name=self.name,
            columns=columns,
            params={"n_elements": self.n_elements, "reads_per_core": self.reads_per_core},
        )


class InterleavedReadUpdateWorkload(Workload):
    """Alternating runs of updates and reads to the same shared array.

    ``updates_per_read`` controls how many commutative updates each core
    performs between reads; sweeping it exposes the crossover the paper
    discusses: COUP pays one mode switch per run, so even two updates per
    update-only epoch are enough to win, while software privatization needs
    many more to amortise its reduction phase.
    """

    name = "interleaved"
    comm_op_label = "64b int add"

    def __init__(
        self,
        n_elements: int = 16,
        updates_per_read: int = 4,
        rounds: int = 50,
        *,
        think: int = 5,
        seed: int = 42,
        update_style: UpdateStyle = UpdateStyle.COMMUTATIVE,
    ) -> None:
        super().__init__(seed=seed, update_style=update_style)
        if updates_per_read < 0:
            raise ValueError("updates_per_read must be non-negative")
        self.n_elements = n_elements
        self.updates_per_read = updates_per_read
        self.rounds = rounds
        self.think = think
        self.op = CommutativeOp.ADD_I64

    def element_address(self, index: int) -> int:
        return self.addresses.element("interleaved_array", index, 8)

    def _build_columnar(self, n_cores: int) -> ColumnarTrace:
        base = self.addresses.region("interleaved_array")
        update_code = self._update_code(1)
        load_code = self._load_code(8)
        run = self.updates_per_read + 1
        code_pattern = np.tile(
            np.array([update_code] * self.updates_per_read + [load_code], dtype=np.uint8),
            self.rounds,
        )
        delta_pattern = np.tile(
            np.array([1] * self.updates_per_read + [0], dtype=np.int64), self.rounds
        )
        columns = []
        for core_id in range(n_cores):
            rng = self._rng(core_id)
            indices = rng.integers(0, self.n_elements, size=self.rounds)
            addresses = np.repeat(base + indices.astype(np.uint64) * 8, run)
            columns.append(make_columns(code_pattern, addresses, delta_pattern, self.think))
        return ColumnarTrace(
            name=self.name,
            columns=columns,
            params={
                "n_elements": self.n_elements,
                "updates_per_read": self.updates_per_read,
                "rounds": self.rounds,
            },
        )


class MixedOpWorkload(Workload):
    """Commutative updates of different types to the same line.

    COUP must serialise updates of different types (they do not commute with
    each other), performing a full reduction on every type switch; this
    workload exercises that path and the associated correctness invariants.
    """

    name = "mixed-ops"
    comm_op_label = "64b int add + 64b OR"

    def __init__(
        self,
        updates_per_core: int = 200,
        switch_every: int = 10,
        *,
        seed: int = 42,
    ) -> None:
        super().__init__(seed=seed, update_style=UpdateStyle.COMMUTATIVE)
        if switch_every <= 0:
            raise ValueError("switch_every must be positive")
        self.updates_per_core = updates_per_core
        self.switch_every = switch_every

    @property
    def add_address(self) -> int:
        return self.addresses.element("mixed", 0, 8)

    @property
    def or_address(self) -> int:
        return self.addresses.element("mixed", 1, 8)

    def _build_columnar(self, n_cores: int) -> ColumnarTrace:
        add_address = self.add_address
        or_address = self.or_address
        comm = AccessType.COMMUTATIVE_UPDATE
        add_code = code_for(comm, CommutativeOp.ADD_I64, 8, VK_INT)
        or_code_int = code_for(comm, CommutativeOp.OR_64, 8, VK_INT)
        or_code_uint = code_for(comm, CommutativeOp.OR_64, 8, VK_UINT)
        i = np.arange(self.updates_per_core, dtype=np.int64)
        use_add = (i // self.switch_every) % 2 == 0
        bits = (i % 64).astype(np.uint64)
        or_codes = np.where(bits == 63, or_code_uint, or_code_int)
        codes = np.where(use_add, add_code, or_codes).astype(np.uint8)
        addresses = np.where(use_add, np.uint64(add_address), np.uint64(or_address))
        or_deltas = np.left_shift(np.uint64(1), bits).view(np.int64)
        deltas = np.where(use_add, np.int64(1), or_deltas)
        column = make_columns(codes, addresses, deltas, 4)
        # Every core issues the identical update stream; the array is never
        # mutated, so one buffer backs all cores.
        return ColumnarTrace(
            name=self.name,
            columns=[column] * n_cores,
            params={
                "updates_per_core": self.updates_per_core,
                "switch_every": self.switch_every,
            },
        )
