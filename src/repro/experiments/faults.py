"""Deterministic fault injection for the campaign fabric.

The supervisor (:mod:`repro.experiments.supervisor`) and the result journal
(:mod:`repro.experiments.journal`) exist to survive worker deaths, hangs,
and torn journal writes.  None of those paths may be
"discovered in production": this module injects each fault class *on demand
and deterministically*, so recovery is exercised in CI and the recovered
campaign can be compared bit-for-bit against a fault-free run.

Faults are requested through the ``REPRO_FAULT`` environment knob
(registered in :data:`repro.experiments.settings.ENV_KNOBS`).  Grammar::

    spec      ::= directive (";" directive)*
    directive ::= kind (":" param "=" value ("," param "=" value)*)?
    kind      ::= "kill" | "hang" | "torn"

Directive kinds:

* ``kill`` — the worker process SIGKILLs itself before executing the
  matching point (simulates an OOM kill / hardware loss).
* ``hang`` — the worker sleeps ``secs`` (default 3600) before executing the
  matching point, so the supervisor's per-point deadline must reap it.
* ``torn`` — the parent's journal append writes only a prefix of the
  record (``cut`` bytes, default half) and raises :class:`SimulatedCrash`,
  simulating a campaign killed mid-write.

Directive parameters (all optional):

* ``point=<substr>`` — only tasks whose point key contains the substring.
* ``exp=<substr>`` — only tasks whose experiment id contains the substring.
* ``times=<n>`` — fire on attempts ``0 .. n-1`` of each matching task
  (default 1: the fault fires once per point and the retry succeeds).
* ``secs=<float>`` — sleep duration for ``hang`` (default 3600).
* ``cut=<n>`` — bytes of the journal record actually written for ``torn``
  (default: half the encoded record).

Determinism: whether a fault fires depends only on the directive, the task's
(experiment id, point key) and its attempt index — never on wall-clock time
or random draws — so a fault campaign is exactly repeatable.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

#: Recognised directive kinds, in documentation order.
FAULT_KINDS: Tuple[str, ...] = ("kill", "hang", "torn")

#: Signature of the journal torn-write hook: ``(record, encoded_length) ->
#: bytes to actually write`` or ``None`` for a clean write.
TornHook = Callable[[Mapping[str, object], int], Optional[int]]


class FaultSpecError(ValueError):
    """A malformed ``REPRO_FAULT`` specification."""


class SimulatedCrash(RuntimeError):
    """Raised to abort the campaign process as an injected hard crash."""


@dataclass(frozen=True, slots=True)
class FaultDirective:
    """One parsed ``REPRO_FAULT`` directive."""

    kind: str
    point: str = ""
    experiment: str = ""
    times: int = 1
    secs: float = 3600.0
    cut: int = 0

    def matches(self, experiment_id: str, point_key: str, attempt: int) -> bool:
        """True when this directive fires for the given task attempt."""
        return (
            self.point in point_key
            and self.experiment in experiment_id
            and attempt < self.times
        )


def parse_fault_spec(text: str) -> Tuple[FaultDirective, ...]:
    """Parse a ``REPRO_FAULT`` value; raises :class:`FaultSpecError`."""
    directives: List[FaultDirective] = []
    for raw in text.split(";"):
        raw = raw.strip()
        if not raw:
            continue
        kind, _, param_text = raw.partition(":")
        kind = kind.strip()
        if kind not in FAULT_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {kind!r} in {raw!r}; "
                f"expected one of {', '.join(FAULT_KINDS)}"
            )
        params: Dict[str, str] = {}
        if param_text:
            for pair in param_text.split(","):
                name, sep, value = pair.partition("=")
                if not sep or not name.strip():
                    raise FaultSpecError(
                        f"malformed parameter {pair!r} in {raw!r}; expected name=value"
                    )
                params[name.strip()] = value.strip()
        try:
            directive = FaultDirective(
                kind=kind,
                point=params.pop("point", ""),
                experiment=params.pop("exp", ""),
                times=int(params.pop("times", "1")),
                secs=float(params.pop("secs", "3600")),
                cut=int(params.pop("cut", "0")),
            )
        except ValueError as exc:
            raise FaultSpecError(f"malformed parameter value in {raw!r}: {exc}") from exc
        if params:
            unknown = ", ".join(sorted(params))
            raise FaultSpecError(f"unknown parameter(s) {unknown} in {raw!r}")
        if directive.times < 1:
            raise FaultSpecError(f"times must be >= 1 in {raw!r}")
        directives.append(directive)
    return tuple(directives)


class FaultPlan:
    """The active set of fault directives plus parent-side firing counters.

    Worker-side faults (``kill``/``hang``) are matched against the
    task's attempt index, which the supervisor threads into the worker, so a
    ``times=1`` directive fires exactly once per matching point and the
    retry runs clean.  The parent-side ``torn`` fault has no retry loop, so
    the plan counts its firings in memory instead.
    """

    __slots__ = ("directives", "_fired")

    def __init__(self, directives: Tuple[FaultDirective, ...] = ()) -> None:
        self.directives = directives
        self._fired: Dict[int, int] = {}

    @classmethod
    def from_env(cls) -> "FaultPlan":
        """Parse the plan from ``REPRO_FAULT`` (empty knob: no faults)."""
        return cls(parse_fault_spec(os.environ.get("REPRO_FAULT", "")))

    def __bool__(self) -> bool:
        return bool(self.directives)

    def should(
        self, kind: str, experiment_id: str, point_key: str, attempt: int
    ) -> Optional[FaultDirective]:
        """The first matching directive of ``kind`` for this attempt."""
        for directive in self.directives:
            if directive.kind == kind and directive.matches(
                experiment_id, point_key, attempt
            ):
                return directive
        return None

    def fire_counted(
        self, kind: str, experiment_id: str, point_key: str
    ) -> Optional[FaultDirective]:
        """Parent-side match: each directive's in-memory count is its attempt."""
        for index, directive in enumerate(self.directives):
            if directive.kind != kind:
                continue
            fired = self._fired.get(index, 0)
            if directive.matches(experiment_id, point_key, fired):
                self._fired[index] = fired + 1
                return directive
        return None

    def torn_hook(self) -> Optional[TornHook]:
        """A journal torn-write hook, or None when no ``torn`` directive exists.

        The hook receives the record about to be journalled and the encoded
        length; it returns the number of bytes the journal should actually
        write before simulating the crash (``None`` = write cleanly).
        """
        if not any(directive.kind == "torn" for directive in self.directives):
            return None

        def hook(record: Mapping[str, object], nbytes: int) -> Optional[int]:
            experiment_id = str(record.get("experiment_id", ""))
            point_key = str(record.get("point", ""))
            directive = self.fire_counted("torn", experiment_id, point_key)
            if directive is None:
                return None
            cut = directive.cut if 0 < directive.cut < nbytes else nbytes // 2
            return cut

        return hook


#: Process-wide active plan; parsed lazily from the environment so forked
#: workers inherit the parent's parsed plan and spawned workers re-parse the
#: same (inherited) environment.
_active_plan: Optional[FaultPlan] = None


def active_plan() -> FaultPlan:
    """The process-wide fault plan (parsed from ``REPRO_FAULT`` on first use)."""
    global _active_plan
    if _active_plan is None:
        _active_plan = FaultPlan.from_env()
    return _active_plan


def refresh_active_plan() -> FaultPlan:
    """Re-parse ``REPRO_FAULT`` and install the result as the active plan.

    The campaign runner calls this at the start of every campaign so an
    environment change between runs (tests, the chaos CI lane) takes effect,
    and so forked workers inherit a plan consistent with the environment.
    """
    global _active_plan
    _active_plan = FaultPlan.from_env()
    return _active_plan


def set_active_plan(plan: Optional[FaultPlan]) -> None:
    """Install (or clear, with ``None``) the process-wide plan (tests)."""
    global _active_plan
    _active_plan = plan


def fire_kill() -> None:
    """Injection action: SIGKILL the current process (no cleanup runs)."""
    os.kill(os.getpid(), signal.SIGKILL)


def fire_hang(secs: float) -> None:
    """Injection action: block for ``secs`` seconds."""
    time.sleep(secs)
