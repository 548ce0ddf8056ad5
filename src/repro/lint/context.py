"""Project-level configuration and semantic context for the lint rules.

The scoping tables below are the written-down form of contracts that were
previously informal:

* **result-affecting modules** — anything whose execution order or
  iteration order can reach a :class:`~repro.sim.stats.SimulationResult`;
  the determinism rules (``D1xx``) police these.
* **hot-path slot modules** — modules whose classes are instantiated per
  access, per line, or per run inside ``MulticoreSimulator.run``; they
  must be slotted (``H301``) so the interpreter never pays per-instance
  dict costs on the hot path.  The protocol engines are additionally
  covered by the attribute-discipline rule (``H302``) but not by the slots
  rule: each engine is one instance per run and its attribute surface *is*
  the documented hoisted-table cache.
* **protocol engine modules** — the three stable-state engines whose
  transition handling is cross-checked against :mod:`repro.core.states`
  and the columnar type-code table (``P2xx``).

Semantic facts (enum member tables, the registered env-knob table, the
columnar code tables) are imported lazily from the real package so the
rules check against the single source of truth rather than a copy.
"""

from __future__ import annotations

import os
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

#: Directories whose modules can affect simulation results.
RESULT_AFFECTING_PREFIXES: Tuple[str, ...] = (
    "src/repro/sim/",
    "src/repro/core/",
    "src/repro/hierarchy/",
    "src/repro/interconnect/",
)

#: The verification harness.  Not result-affecting (nothing here feeds a
#: ``SimulationResult``), but its whole value rests on determinism — sharded
#: BFS folds must be jobs-independent, walks and shrinks seed-reproducible —
#: so the unordered-iteration rule (D102) scans it.  The wall-clock rule
#: (D103) deliberately does *not*: the checker's progress reporting and the
#: CLI's swarm budget legitimately read the host clock, and no clock value
#: reaches a verification verdict.
VERIFICATION_PREFIX = "src/repro/verification/"

#: The telemetry package.  Not result-affecting (the obs contract is that
#: nothing here feeds a ``SimulationResult``), but rule D103 *does* scan it:
#: the subsystem's design routes every host-clock read through the registry,
#: and the rule is what keeps that true.
OBS_PREFIX = "src/repro/obs/"

#: The sanctioned wall-clock island (rule D103's allowlist).  Exactly the
#: modules allowed to read the host clock without a per-line suppression —
#: everything else (including the rest of ``repro/obs/``) must take
#: timestamps through :func:`repro.obs.registry.clock`.  Like the waiver
#: budget, this list is audited: an allowlisted module that stops reading
#: the clock (or disappears) is flagged stale so the island can only shrink
#: deliberately, never silently.
OBS_WALLCLOCK_MODULES: Tuple[str, ...] = (
    "src/repro/obs/registry.py",
)

#: Modules whose classes ride the per-access / per-line hot path and must
#: declare ``__slots__`` (rule H301).
HOT_SLOTS_MODULES: Tuple[str, ...] = (
    "src/repro/sim/access.py",
    "src/repro/sim/stats.py",
    "src/repro/sim/kernel.py",
    "src/repro/sim/simulator.py",
    "src/repro/hierarchy/cache.py",
    "src/repro/hierarchy/memory.py",
    "src/repro/hierarchy/system.py",
    "src/repro/core/directory.py",
    "src/repro/core/reduction.py",
)

#: Modules under the attribute-creation discipline (rule H302): the slot
#: modules plus the protocol engines and the simulator driver.
HOT_ATTR_MODULES: Tuple[str, ...] = HOT_SLOTS_MODULES + (
    "src/repro/core/protocol.py",
    "src/repro/core/mesi.py",
    "src/repro/core/meusi.py",
    "src/repro/core/rmo.py",
)

#: The stable-state protocol engines (rules P202/P203).
PROTOCOL_ENGINE_MODULES: Tuple[str, ...] = (
    "src/repro/core/mesi.py",
    "src/repro/core/meusi.py",
    "src/repro/core/rmo.py",
)

#: Stable-state alphabet each engine module may reference (rule P203).
#: ``mesi.py`` hosts the MESI-family shared machinery MEUSI inherits; a
#: reference to U there must carry an audited inline suppression.
ENGINE_STATE_ALPHABET: Mapping[str, FrozenSet[str]] = {
    "src/repro/core/mesi.py": frozenset({"INVALID", "SHARED", "EXCLUSIVE", "MODIFIED"}),
    "src/repro/core/rmo.py": frozenset({"INVALID", "SHARED", "EXCLUSIVE", "MODIFIED"}),
    "src/repro/core/meusi.py": frozenset(
        {"INVALID", "SHARED", "EXCLUSIVE", "MODIFIED", "UPDATE"}
    ),
}

#: Values the batch contract accepts for ``HOT_COMMUTATIVE``.
HOT_COMMUTATIVE_VALUES: FrozenSet[str] = frozenset({"atomic", "local", "never"})


def is_result_affecting(relpath: str) -> bool:
    return relpath.startswith(RESULT_AFFECTING_PREFIXES)


def is_verification_module(relpath: str) -> bool:
    return relpath.startswith(VERIFICATION_PREFIX)


def is_obs_module(relpath: str) -> bool:
    return relpath.startswith(OBS_PREFIX)


def is_obs_wallclock_module(relpath: str) -> bool:
    return relpath in OBS_WALLCLOCK_MODULES


class ProjectContext:
    """Semantic facts about the project, loaded lazily and cached.

    ``root`` is the project root used to resolve the README and to make
    paths relative; when the real :mod:`repro` package is importable the
    enum/knob/code tables come from it directly.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = os.path.abspath(root) if root else os.getcwd()
        self._enum_members: Optional[Dict[str, FrozenSet[str]]] = None
        self._registered_knobs: Optional[Dict[str, object]] = None
        self._readme_text: Optional[str] = None

    # -- enum member tables (rule P201/P203) --------------------------------

    @property
    def enum_members(self) -> Dict[str, FrozenSet[str]]:
        """Allowed attribute names per checked enum/class, from the source
        of truth in :mod:`repro.core.states` / :mod:`repro.sim.access`."""
        if self._enum_members is None:
            from repro.core.commutative import CommutativeOp
            from repro.core.states import LineMode, RequestType, StableState
            from repro.sim.access import AccessType

            def allowed(cls: type) -> FrozenSet[str]:
                return frozenset(name for name in dir(cls) if not name.startswith("_"))

            self._enum_members = {
                "StableState": allowed(StableState),
                "LineMode": allowed(LineMode),
                "RequestType": allowed(RequestType),
                "AccessType": allowed(AccessType),
                "CommutativeOp": allowed(CommutativeOp),
            }
        return self._enum_members

    # -- registered environment knobs (rule H303) ---------------------------

    @property
    def registered_knobs(self) -> Dict[str, object]:
        """Name -> :class:`repro.experiments.settings.EnvKnob` mapping."""
        if self._registered_knobs is None:
            from repro.experiments.settings import ENV_KNOBS

            self._registered_knobs = {knob.name: knob for knob in ENV_KNOBS}
        return self._registered_knobs

    # -- README (rule H303's documentation check) ---------------------------

    @property
    def readme_text(self) -> str:
        if self._readme_text is None:
            readme = os.path.join(self.root, "README.md")
            try:
                with open(readme, "r", encoding="utf-8") as handle:
                    self._readme_text = handle.read()
            except OSError:
                self._readme_text = ""
        return self._readme_text

    def relpath(self, path: str) -> str:
        """Project-relative POSIX path of ``path``."""
        rel = os.path.relpath(os.path.abspath(path), self.root)
        return rel.replace(os.sep, "/")
