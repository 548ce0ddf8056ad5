"""Differential cross-check: live protocol engines vs the abstract model.

The exhaustive and swarm lanes verify the *abstract* protocol model; this
lane closes the loop with the *live* engines in :mod:`repro.sim`.  One
generated transaction stream — loads, stores, commutative updates, and
evictions over a handful of addresses — drives both sides:

* **Live side**: the stream becomes a :class:`WorkloadTrace` (updates map to
  ``atomic`` under MESI, ``commutative`` under COUP/MEUSI, ``remote_update``
  under RMO; evictions have no live counterpart and are dropped).  The run
  is executed twice, once with the scalar kernel and once with the batched
  kernel forced, and the two :meth:`SimulationResult.to_jsonable` documents
  must be byte-identical.  Afterwards the engine's directory must pass its
  invariant checks, and every update-only address must hold exactly the
  number of updates applied to it.
* **Model side**: the same stream drives one single-line
  :class:`CoherenceModel` instance per address with deterministic
  micro-stepping — drain internal transitions (message deliveries,
  directory processing) to quiescence, then apply the rule the transaction
  calls for.  The Sec. 3.3 invariants are checked after *every* micro-step,
  and at the end each address's ghost value must equal its operation count
  modulo ``value_base``.

A divergence on either side is a :class:`DifferentialFailure`.  Because the
model side is a pure function of ``(config, stream)``, a failing stream is
delta-debugged (:func:`repro.verification.shrink.ddmin`) down to a minimal
transaction sequence and written as a ``kind="stream"`` repro file that
``python -m repro.verification replay`` re-executes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.verification.invariants import InvariantViolation, check_invariants
from repro.verification.model import (
    CacheState,
    CoherenceModel,
    GlobalState,
    ModelConfig,
)

#: Transaction kinds a stream may contain.  ``evict`` exercises the model's
#: writeback/reduction paths (PutM/PutU absorption); the live engines evict
#: by capacity, so it has no live counterpart.
STREAM_KINDS: Tuple[str, ...] = ("load", "store", "update", "evict")

#: Micro-step budget per drain; a drain that exceeds it is a livelock bug.
_DRAIN_CAP = 10_000

#: Live protocol -> abstract model protocol.  RMO pushes updates to the
#: shared level instead of buffering in private U lines, but its
#: architectural contract (updates conserved, single writer) is the MEUSI
#: model's.
MODEL_PROTOCOL = {"MESI": "MESI", "COUP": "MEUSI", "MEUSI": "MEUSI", "RMO": "MEUSI"}


@dataclass(frozen=True)
class StreamConfig:
    """Parameters of one differential point; fully determines the stream."""

    protocol: str = "MEUSI"
    n_cores: int = 2
    n_addresses: int = 2
    length: int = 48
    seed: int = 0
    value_base: int = 16

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "protocol": self.protocol,
            "n_cores": self.n_cores,
            "n_addresses": self.n_addresses,
            "length": self.length,
            "seed": self.seed,
            "value_base": self.value_base,
        }

    @classmethod
    def from_jsonable(cls, data: Any) -> "StreamConfig":
        return cls(
            protocol=str(data["protocol"]),
            n_cores=int(data["n_cores"]),
            n_addresses=int(data["n_addresses"]),
            length=int(data["length"]),
            seed=int(data["seed"]),
            value_base=int(data["value_base"]),
        )

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            n_cores=self.n_cores,
            n_ops=1,
            protocol=MODEL_PROTOCOL[self.protocol.upper()],
            value_base=self.value_base,
        )


#: One transaction: ``[core, address index, kind]`` (JSON-ready as is).
Transaction = List[Any]


def generate_stream(config: StreamConfig) -> List[Transaction]:
    """The deterministic transaction stream of a :class:`StreamConfig`."""
    rng = random.Random(config.seed * 9_176_141 + 17)
    stream: List[Transaction] = []
    for _ in range(config.length):
        core = rng.randrange(config.n_cores)
        address = rng.randrange(config.n_addresses)
        kind = STREAM_KINDS[rng.randrange(len(STREAM_KINDS))]
        stream.append([core, address, kind])
    return stream


@dataclass
class DifferentialFailure:
    """One divergence between the two sides (or an outright violation)."""

    #: ``model-invariant`` | ``model-ghost`` | ``model-livelock`` |
    #: ``kernel-divergence`` | ``live-directory`` | ``live-values``
    reason: str
    detail: str
    #: Stream index at which the model side failed (None for live failures).
    index: Optional[int] = None
    violation: Optional[InvariantViolation] = None

    def to_jsonable(self) -> Dict[str, Any]:
        from repro.verification import encode

        return {
            "invariant": self.reason,
            "detail": self.detail,
            "index": self.index,
            "violation": (
                encode.violation_to_jsonable(self.violation)
                if self.violation is not None
                else None
            ),
        }


@dataclass
class DifferentialResult:
    """Outcome of one differential point."""

    config: StreamConfig
    stream: List[Transaction]
    failure: Optional[DifferentialFailure] = None
    checks: List[str] = field(default_factory=list)
    mutation: Optional[str] = None

    @property
    def verified(self) -> bool:
        return self.failure is None

    def summary(self) -> Dict[str, Any]:
        return {
            "protocol": self.config.protocol,
            "n_cores": self.config.n_cores,
            "seed": self.config.seed,
            "length": len(self.stream),
            "checks": list(self.checks),
            "verified": self.verified,
            "failure": None if self.failure is None else self.failure.reason,
        }


# -- model side ----------------------------------------------------------------


def _is_internal(rule: str) -> bool:
    """Internal transitions: directory processing and message deliveries."""
    return rule.startswith("dir.") or ".recv_" in rule


class _AddressModel:
    """One address's single-line model state, driven transaction by transaction."""

    def __init__(self, model: CoherenceModel, config: ModelConfig) -> None:
        self.model = model
        self.config = config
        self.state: GlobalState = model.initial_state()
        self.ops_applied = 0

    def _step_named(self, rule: str) -> bool:
        """Apply ``rule`` if enabled (first canonical match); True if applied."""
        for name, successor in self.model.ordered_successors(self.state):
            if name == rule:
                self.state = successor
                return True
        return False

    def drain(self) -> Optional[DifferentialFailure]:
        """Apply internal transitions to quiescence, checking every step."""
        for _ in range(_DRAIN_CAP):
            violations = check_invariants(self.state, self.config)
            if violations:
                return DifferentialFailure(
                    reason="model-invariant",
                    detail=violations[0].detail,
                    violation=violations[0],
                )
            internal = [
                item
                for item in self.model.ordered_successors(self.state)
                if _is_internal(item[0])
            ]
            if not internal:
                return None
            self.state = internal[0][1]
        return DifferentialFailure(
            reason="model-livelock",
            detail=f"drain did not reach quiescence within {_DRAIN_CAP} steps",
        )

    def _apply_write(self, core: int) -> Optional[DifferentialFailure]:
        """Apply one write by ``core`` (miss-path grants perform the write).

        The model folds the operation that initiated a miss into the grant
        delivery — ``IM_D``/``IU_W`` + Data (and ``IU_W`` + GrantU) bump the
        ghost value as they install the line — so issuing the miss *is*
        applying the op; only an owned hit needs an explicit local rule.
        """
        line = self.state.caches[core]
        if line.state is CacheState.U:
            self._step_named(f"core{core}.evict_u")
            failure = self.drain()
            if failure is not None:
                return failure
            line = self.state.caches[core]
        applied = False
        if line.state is CacheState.I:
            applied = self._step_named(f"core{core}.write_miss")
        elif line.state is CacheState.S:
            applied = self._step_named(f"core{core}.upgrade")
        elif line.state in (CacheState.M, CacheState.E):
            applied = self._step_named(f"core{core}.local_write")
        if applied:
            self.ops_applied += 1
        return self.drain()

    def apply(self, core: int, kind: str) -> Optional[DifferentialFailure]:
        """Apply one transaction; deterministic state-dependent rule choice."""
        failure = self.drain()
        if failure is not None:
            return failure
        line = self.state.caches[core]
        if kind == "load":
            if line.state is CacheState.I:
                self._step_named(f"core{core}.read_miss")
            # S/M/E read locally; U defers reads until the reduction — no rule.
        elif kind == "store":
            return self._apply_write(core)
        elif kind == "update":
            if not self.config.supports_update_state:
                # MESI models an atomic RMW as an owned write.
                return self._apply_write(core)
            applied = False
            if line.state is CacheState.I:
                applied = self._step_named(f"core{core}.update_miss_op0")
            elif line.state is CacheState.S:
                applied = self._step_named(f"core{core}.update_from_s_op0")
            elif line.state is CacheState.U:
                applied = self._step_named(f"core{core}.local_update_in_u")
            elif line.state in (CacheState.M, CacheState.E):
                applied = self._step_named(f"core{core}.local_write")
            if applied:
                self.ops_applied += 1
        elif kind == "evict":
            for rule in (
                f"core{core}.evict_m",
                f"core{core}.evict_u",
                f"core{core}.evict_s",
            ):
                if self._step_named(rule):
                    break
        else:
            raise ValueError(f"unknown stream transaction kind {kind!r}")
        return self.drain()

    def check_final(self) -> Optional[DifferentialFailure]:
        """At quiescence the ghost value must equal the applied-op count."""
        expected = self.ops_applied % self.config.value_base
        if self.state.ghost_value != expected:
            return DifferentialFailure(
                reason="model-ghost",
                detail=(
                    f"ghost value {self.state.ghost_value} != "
                    f"{expected} ({self.ops_applied} ops mod "
                    f"{self.config.value_base})"
                ),
            )
        return None


def replay_stream_model(
    config: StreamConfig,
    stream: Sequence[Transaction],
    *,
    mutation: Optional[str] = None,
) -> Optional[DifferentialFailure]:
    """Drive the abstract model with ``stream``; the first failure, if any.

    Pure function of its arguments — this is both the model half of a
    differential point and the ``ddmin`` predicate for stream shrinking.
    """
    model_config = config.model_config()
    model = CoherenceModel(model_config, mutation=mutation)
    addresses: Dict[int, _AddressModel] = {}
    for index, (core, address, kind) in enumerate(stream):
        tracker = addresses.get(address)
        if tracker is None:
            tracker = _AddressModel(model, model_config)
            addresses[address] = tracker
        failure = tracker.apply(int(core), str(kind))
        if failure is not None:
            failure.index = index
            return failure
    for address in sorted(addresses):
        tracker = addresses[address]
        failure = tracker.drain()
        if failure is None:
            failure = tracker.check_final()
        if failure is not None:
            return failure
    return None


def shrink_stream(
    config: StreamConfig,
    stream: Sequence[Transaction],
    *,
    mutation: Optional[str] = None,
) -> Tuple[List[Transaction], DifferentialFailure]:
    """Minimize a model-side failing stream; (minimal stream, its failure)."""
    from repro.verification.shrink import ddmin

    def fails(candidate: Sequence[Transaction]) -> bool:
        return replay_stream_model(config, candidate, mutation=mutation) is not None

    minimal = ddmin(list(stream), fails)
    failure = replay_stream_model(config, minimal, mutation=mutation)
    assert failure is not None  # ddmin only returns failing candidates
    return minimal, failure


# -- live side -----------------------------------------------------------------


def stream_workload(config: StreamConfig, stream: Sequence[Transaction]) -> Any:
    """The live-engine workload of a stream (evictions dropped)."""
    from repro.core.commutative import CommutativeOp
    from repro.sim.access import MemoryAccess, WorkloadTrace

    protocol = config.protocol.upper()
    per_core: List[List[Any]] = [[] for _ in range(config.n_cores)]
    for core, address, kind in stream:
        byte_address = int(address) * 64
        if kind == "load":
            per_core[int(core)].append(MemoryAccess.load(byte_address))
        elif kind == "store":
            per_core[int(core)].append(MemoryAccess.store(byte_address, value=0))
        elif kind == "update":
            if protocol == "MESI":
                access = MemoryAccess.atomic(byte_address, CommutativeOp.ADD_I64, 1)
            elif protocol == "RMO":
                access = MemoryAccess.remote_update(
                    byte_address, CommutativeOp.ADD_I64, 1
                )
            else:
                access = MemoryAccess.commutative(
                    byte_address, CommutativeOp.ADD_I64, 1
                )
            per_core[int(core)].append(access)
        # evictions are a model-side concern; live caches evict by capacity.
    return WorkloadTrace(
        name="differential-stream",
        per_core=per_core,
        params={"seed": config.seed, "length": config.length},
    )


def _run_live(
    config: StreamConfig, stream: Sequence[Transaction], kernel: str
) -> Tuple[Dict[str, Any], Any]:
    """One live run under a forced kernel; (result jsonable, engine)."""
    import os

    from repro.sim.columnar import ColumnarTrace
    from repro.sim.config import small_test_config
    from repro.sim.simulator import MulticoreSimulator, make_protocol

    workload = ColumnarTrace.from_workload(stream_workload(config, stream))
    sim_config = small_test_config(config.n_cores)
    engine = make_protocol(config.protocol, sim_config, track_values=True)
    simulator = MulticoreSimulator(sim_config, engine, track_values=True)
    previous = os.environ.get("REPRO_SIM_KERNEL")
    os.environ["REPRO_SIM_KERNEL"] = kernel
    try:
        result = simulator.run(workload)
    finally:
        if previous is None:
            del os.environ["REPRO_SIM_KERNEL"]
        else:
            os.environ["REPRO_SIM_KERNEL"] = previous
    return result.to_jsonable(), engine


def check_live(
    config: StreamConfig, stream: Sequence[Transaction]
) -> Tuple[Optional[DifferentialFailure], List[str]]:
    """The live half of a differential point; (failure, checks performed)."""
    from repro.verification.encode import canonical_dumps

    checks: List[str] = []
    scalar, _scalar_engine = _run_live(config, stream, "scalar")
    batch, engine = _run_live(config, stream, "batch")
    checks.append("kernel-equivalence")
    if canonical_dumps(scalar) != canonical_dumps(batch):
        differing = sorted(
            key
            for key in set(scalar) | set(batch)
            if scalar.get(key) != batch.get(key)
        )
        return (
            DifferentialFailure(
                reason="kernel-divergence",
                detail=(
                    "scalar and batched kernels disagree on "
                    f"field(s) {differing}"
                ),
            ),
            checks,
        )

    checks.append("directory-invariants")
    try:
        engine.directory.check_invariants()
    except AssertionError as exc:
        return (
            DifferentialFailure(reason="live-directory", detail=str(exc)),
            checks,
        )

    checks.append("value-correspondence")
    expected: Dict[int, int] = {}
    pure_updates: Dict[int, bool] = {}
    for _core, address, kind in stream:
        byte_address = int(address) * 64
        if kind == "update":
            expected[byte_address] = expected.get(byte_address, 0) + 1
            pure_updates.setdefault(byte_address, True)
        elif kind in ("load", "store"):
            pure_updates[byte_address] = False
    final_values = dict(batch.get("final_values") or [])
    for byte_address in sorted(expected):
        if not pure_updates.get(byte_address):
            continue  # stores make the final value interleaving-dependent
        actual = final_values.get(byte_address)
        if actual != expected[byte_address]:
            return (
                DifferentialFailure(
                    reason="live-values",
                    detail=(
                        f"address {byte_address:#x}: final value {actual!r} "
                        f"!= {expected[byte_address]} updates applied"
                    ),
                ),
                checks,
            )
    return None, checks


def run_differential(
    config: StreamConfig,
    *,
    mutation: Optional[str] = None,
    live: bool = True,
) -> DifferentialResult:
    """Run one differential point: model side always, live side optionally."""
    stream = generate_stream(config)
    result = DifferentialResult(config=config, stream=stream, mutation=mutation)
    failure = replay_stream_model(config, stream, mutation=mutation)
    result.checks.append("model-correspondence")
    if failure is not None:
        result.failure = failure
        return result
    if live:
        failure, live_checks = check_live(config, stream)
        result.checks.extend(live_checks)
        result.failure = failure
    return result
