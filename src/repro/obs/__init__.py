"""``repro.obs`` — zero-overhead-when-off telemetry for the reproduction.

Three modes, selected by the ``REPRO_OBS`` environment knob (registered in
:data:`repro.experiments.settings.ENV_KNOBS`, rule H303):

* ``off`` (default) — :func:`get_registry` returns ``None``; every
  instrumented site in the simulator and the campaign fabric reduces to a
  single ``is None`` guard on a slow path.  Gated at <=1% overhead on the
  paper grid by ``benchmarks/test_obs.py``.
* ``counters`` — integer counters only (stint transitions, bail reasons,
  cache hits, worker lifecycle); no host-clock reads
  beyond the campaign fabric's existing ones.
* ``full`` — counters plus phase timing histograms (slow-event boundary
  phases, journal append latency) and JSONL event segments under
  :func:`events_dir`, rendered by ``python -m repro.obs.report``.

The telemetry contract, relied on by the golden-fingerprint suites: **no
value produced here ever feeds a** :class:`~repro.sim.stats.SimulationResult`.
``to_jsonable()`` output is byte-identical with ``REPRO_OBS=off`` and
``REPRO_OBS=full`` (asserted by ``tests/obs/test_bit_identity.py``), and
``REPRO_OBS``/``REPRO_OBS_DIR`` never enter sweep-cache content hashes.

All host-clock reads route through :mod:`repro.obs.registry`, the single
module on repro-lint's ``OBS_WALLCLOCK_MODULES`` allowlist (rule D103).
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

from repro.obs.registry import ObsRegistry

__all__ = [
    "MODES",
    "events_dir",
    "events_enabled",
    "get_registry",
    "mode",
    "reconfigure",
    "timing_registry",
]

#: Accepted ``REPRO_OBS`` values, in increasing order of cost.
MODES: Tuple[str, ...] = ("off", "counters", "full")

_DEFAULT_EVENTS_DIR = os.path.join("results", "obs")

_mode: Optional[str] = None
_registry: Optional[ObsRegistry] = None
_events_dir: Optional[str] = None


def _parse_mode(value: str) -> str:
    normalized = value.strip().lower()
    if normalized == "":
        return "off"
    if normalized not in MODES:
        raise ValueError(
            f"REPRO_OBS must be one of {'|'.join(MODES)}, got {value!r}"
        )
    return normalized


def _configure_from_env() -> None:
    global _mode, _registry, _events_dir
    _mode = _parse_mode(os.environ.get("REPRO_OBS", "off"))
    _events_dir = os.environ.get("REPRO_OBS_DIR", "") or _DEFAULT_EVENTS_DIR
    _registry = None if _mode == "off" else ObsRegistry(timing=_mode == "full")


def mode() -> str:
    """Current telemetry mode (``off`` / ``counters`` / ``full``).

    Read from the environment once per process and cached; workers spawned
    by the campaign fabric therefore inherit the campaign's mode whether
    they fork (inherit the cache) or spawn (re-read the same environment).
    """
    if _mode is None:
        _configure_from_env()
    assert _mode is not None
    return _mode


def get_registry() -> Optional[ObsRegistry]:
    """The process-wide registry, or ``None`` when telemetry is off.

    The ``None`` return is the whole zero-overhead design: instrumented
    code stores this once (a slot, a local) and each site costs one
    ``is None`` test when disabled.
    """
    if _mode is None:
        _configure_from_env()
    return _registry


def timing_registry() -> Optional[ObsRegistry]:
    """The registry only when phase timing is on (``full``), else ``None``."""
    registry = get_registry()
    if registry is not None and registry.timing:
        return registry
    return None


def events_enabled() -> bool:
    """Whether JSONL event segments should be written (``full`` only)."""
    return mode() == "full"


def events_dir() -> str:
    """Directory for JSONL event segments (``REPRO_OBS_DIR``, default
    ``results/obs``)."""
    if _mode is None:
        _configure_from_env()
    assert _events_dir is not None
    return _events_dir


def reconfigure(
    obs_mode: Optional[str] = None, directory: Optional[str] = None
) -> Optional[ObsRegistry]:
    """Re-read or override the telemetry configuration (tests use this).

    With no arguments, drops the cached configuration and re-reads the
    environment on next use.  With arguments, installs the given mode /
    events directory immediately (bypassing the environment) and returns
    the fresh registry (``None`` for ``off``).
    """
    global _mode, _registry, _events_dir
    if obs_mode is None and directory is None:
        _mode = None
        _registry = None
        _events_dir = None
        return None
    if obs_mode is not None:
        _mode = _parse_mode(obs_mode)
        _registry = None if _mode == "off" else ObsRegistry(timing=_mode == "full")
    elif _mode is None:
        _configure_from_env()
    if directory is not None:
        _events_dir = directory
    elif _events_dir is None:
        _events_dir = os.environ.get("REPRO_OBS_DIR", "") or _DEFAULT_EVENTS_DIR
    return _registry
