"""Shared experiment settings: core-count sweeps and workload scaling.

The paper's runs use billions of instructions on a 128-core simulator; a
pure-Python reproduction must scale inputs down to finish in seconds per
configuration.  All experiments read their scale from one place so that the
whole harness can be made larger (closer to the paper) or smaller (CI-sized)
by a single knob:

* ``REPRO_SCALE`` — a float multiplier applied to workload sizes (default 1.0).
* ``REPRO_MAX_CORES`` — caps the largest simulated core count (default 64 for
  the benchmark harness; the library itself supports 128).

Both can be set as environment variables or overridden programmatically via
:func:`set_scale` / :func:`set_max_cores`.

This module also hosts :data:`ENV_KNOBS`, the registry of **every**
``REPRO_*`` environment knob the reproduction honours — including knobs
consumed elsewhere (the kernel's ``REPRO_SIM_KERNEL``).
The registry is the single source of truth: the static checker
(``python -m repro.lint``, rule H303) rejects any ``REPRO_*`` read whose
name is not registered here, and requires each registered knob to be
documented in README.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True, slots=True)
class EnvKnob:
    """One registered ``REPRO_*`` environment knob."""

    #: Environment variable name (``REPRO_...``).
    name: str
    #: Default value, as the string the environment would carry.
    default: str
    #: Human-readable value domain (for docs and error messages).
    domain: str
    #: One-line description (mirrored in README.md, enforced by lint H303).
    description: str
    #: Dotted module that reads the knob.
    consumer: str


#: The complete environment surface of the reproduction.  Add new knobs
#: here FIRST; rule H303 makes unregistered ``REPRO_*`` reads a lint error.
ENV_KNOBS: Tuple[EnvKnob, ...] = (
    EnvKnob(
        name="REPRO_SCALE",
        default="1.0",
        domain="positive float",
        description="Workload scale multiplier applied to every experiment grid.",
        consumer="repro.experiments.settings",
    ),
    EnvKnob(
        name="REPRO_MAX_CORES",
        default="64",
        domain="positive int",
        description="Cap on the largest simulated core count.",
        consumer="repro.experiments.settings",
    ),
    EnvKnob(
        name="REPRO_SIM_KERNEL",
        default="auto",
        domain="auto | batch | scalar",
        description="Simulation kernel selection: batched, scalar, or adaptive.",
        consumer="repro.sim.kernel",
    ),
    EnvKnob(
        name="REPRO_FAULT",
        default="",
        domain="fault-injection spec (kind[:param=value,...] joined by ';')",
        description="Deterministic fault injection for the campaign fabric (kill/hang/torn).",
        consumer="repro.experiments.faults",
    ),
    EnvKnob(
        name="REPRO_OBS",
        default="off",
        domain="off | counters | full",
        description="Telemetry mode: disabled, counters only, or counters plus phase timing and JSONL event segments.",
        consumer="repro.obs",
    ),
    EnvKnob(
        name="REPRO_OBS_DIR",
        default="results/obs",
        domain="directory path",
        description="Directory where REPRO_OBS=full writes its JSONL event segments.",
        consumer="repro.obs",
    ),
    EnvKnob(
        name="REPRO_POINT_TIMEOUT",
        default="900",
        domain="positive float seconds",
        description="Base per-sweep-point wall-clock timeout; the supervisor scales it by point size.",
        consumer="repro.experiments.settings",
    ),
    EnvKnob(
        name="REPRO_MAX_ATTEMPTS",
        default="3",
        domain="positive int",
        description="Attempts per sweep point before the supervisor quarantines it.",
        consumer="repro.experiments.settings",
    ),
    EnvKnob(
        name="REPRO_VERIFY_MUTATE",
        default="",
        domain="mutation rule id (see repro.verification.model.MUTATIONS) or empty",
        description="Inject one deliberate protocol-model breakage so every verification lane can prove it catches and minimizes it.",
        consumer="repro.verification.model",
    ),
    EnvKnob(
        name="REPRO_VERIFY_SWARM_SECONDS",
        default="30",
        domain="positive float seconds",
        description="Wall-clock budget for the swarm lane in the verification CLI; bounds how many walks run, never what a walk does.",
        consumer="repro.verification.__main__",
    ),
)


_DEFAULT_SCALE = 1.0
_DEFAULT_MAX_CORES = 64

_scale: float = float(os.environ.get("REPRO_SCALE", str(_DEFAULT_SCALE)))
_max_cores: int = int(os.environ.get("REPRO_MAX_CORES", str(_DEFAULT_MAX_CORES)))


def scale() -> float:
    """Current workload scale multiplier."""
    return _scale


def set_scale(value: float) -> None:
    """Override the workload scale multiplier (tests use this)."""
    global _scale
    if value <= 0:
        raise ValueError("scale must be positive")
    _scale = value


def scaled(value: int, minimum: int = 1) -> int:
    """Scale an integer workload parameter, keeping it at least ``minimum``."""
    return max(minimum, int(round(value * _scale)))


def max_cores() -> int:
    """Largest core count the experiment sweeps will simulate."""
    return _max_cores


def set_max_cores(value: int) -> None:
    global _max_cores
    if value <= 0:
        raise ValueError("max_cores must be positive")
    _max_cores = value


def point_timeout() -> float:
    """Base per-point wall-clock timeout in seconds (``REPRO_POINT_TIMEOUT``).

    Read at each call (not cached at import) so tests and the chaos CI lane
    can tighten the deadline per campaign.  The supervisor scales this base
    by point size; see :func:`repro.experiments.runner.run_parallel`.
    """
    value = float(os.environ.get("REPRO_POINT_TIMEOUT", "900"))
    if value <= 0:
        raise ValueError("REPRO_POINT_TIMEOUT must be positive")
    return value


def max_attempts() -> int:
    """Attempts per sweep point before quarantine (``REPRO_MAX_ATTEMPTS``)."""
    value = int(os.environ.get("REPRO_MAX_ATTEMPTS", "3"))
    if value < 1:
        raise ValueError("REPRO_MAX_ATTEMPTS must be >= 1")
    return value


def core_sweep(paper_points: Sequence[int] = (1, 32, 64, 96, 128)) -> List[int]:
    """The paper's core-count sweep, capped at :func:`max_cores`.

    The cap always keeps at least the single-core baseline and one multi-core
    point so speedup curves remain meaningful.
    """
    cap = max_cores()
    points = [p for p in paper_points if p <= cap]
    if not points:
        points = [1]
    if len(points) == 1 and cap > 1:
        points.append(cap)
    return points


def sweep_with_baseline(core_counts: Sequence[int] | None = None) -> List[int]:
    """The given core counts (default :func:`core_sweep`) with the 1-core
    baseline always present.

    The speedup figures (10, 12, 13) normalise to the single-core run, and
    their sweep specs reuse the 1-core point as that baseline — so the
    single-core count must always be part of the sweep.
    """
    points = list(core_counts) if core_counts else core_sweep()
    if 1 not in points:
        points = [1] + points
    return points


def amat_core_points(paper_points: Sequence[int] = (8, 32, 128)) -> List[int]:
    """Core counts used by the Fig. 11 AMAT breakdown, capped like the sweep."""
    cap = max_cores()
    points = [p for p in paper_points if p <= cap]
    if not points:
        points = [min(8, cap)]
    if cap not in points and cap >= 8:
        points.append(cap)
    return sorted(set(points))
