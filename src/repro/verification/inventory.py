"""Protocol state inventories (Sec. 3.4 / Fig. 7).

The paper reports the number of stable and transient states of its full
MESI and MEUSI implementations for two- and three-level hierarchies, and
observes that the generalized non-exclusive state N lets MEUSI add only a
single transient state (NN) at the L1 over MESI.  This module records those
inventories as data so experiments and tests can reproduce the "implementation
and verification costs" discussion, and provides helpers that compute the
derived quantities the paper quotes (extra states per controller, directory
bits per line).

The inventories describe the paper's protocol implementations; the executable
model in :mod:`repro.verification.model` uses a reduced transient-state set
(a blocking directory) which is sufficient for the Fig. 8 style state-space
study but is not a state-for-state replica of the Fig. 7 controllers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class ControllerInventory:
    """State inventory of one cache/directory controller."""

    controller: str
    stable_states: Tuple[str, ...]
    transient_states: Tuple[str, ...]

    @property
    def n_stable(self) -> int:
        return len(self.stable_states)

    @property
    def n_transient(self) -> int:
        return len(self.transient_states)

    @property
    def n_total(self) -> int:
        return self.n_stable + self.n_transient


@dataclass(frozen=True)
class ProtocolInventory:
    """State inventories of every controller in one protocol implementation."""

    name: str
    levels: int
    controllers: Tuple[ControllerInventory, ...]

    def controller(self, name: str) -> ControllerInventory:
        for controller in self.controllers:
            if controller.controller == name:
                return controller
        raise KeyError(name)


# Two-level MESI (Fig. 7a): 4 stable + 8 transient L1 states, 6 L2 states.
TWO_LEVEL_MESI = ProtocolInventory(
    name="MESI",
    levels=2,
    controllers=(
        ControllerInventory(
            controller="L1",
            stable_states=("I", "S", "E", "M"),
            transient_states=("IS", "ISI", "IM", "SM", "WB", "WBI", "xMI", "xMS"),
        ),
        ControllerInventory(
            controller="L2",
            stable_states=("I", "S", "M"),
            transient_states=("IS", "IM", "MI"),
        ),
    ),
)

# Two-level MEUSI with the generalized non-exclusive state N (Fig. 7b):
# 13 L1 states (one extra transient, NN) and 6 L2 states.
TWO_LEVEL_MEUSI = ProtocolInventory(
    name="MEUSI",
    levels=2,
    controllers=(
        ControllerInventory(
            controller="L1",
            stable_states=("I", "N", "E", "M"),
            transient_states=("IN", "xNI", "IM", "NM", "NN", "WB", "WBI", "xMI", "xMN"),
        ),
        ControllerInventory(
            controller="L2",
            stable_states=("I", "N", "M"),
            transient_states=("IN", "IM", "MI"),
        ),
    ),
)

# Three-level protocols (Sec. 3.4 text): MESI L1 has 14 states (4 stable,
# 10 transient), L2 has 38 (9 stable, 29 transient), L3 has 6 (3 stable,
# 3 transient); MEUSI adds one transient to the L1 (15) and five to the L2
# (43), and leaves the L3 unchanged.
THREE_LEVEL_MESI = ProtocolInventory(
    name="MESI",
    levels=3,
    controllers=(
        ControllerInventory(
            controller="L1",
            stable_states=("I", "S", "E", "M"),
            transient_states=tuple(f"T{i}" for i in range(10)),
        ),
        ControllerInventory(
            controller="L2",
            stable_states=tuple(f"S{i}" for i in range(9)),
            transient_states=tuple(f"T{i}" for i in range(29)),
        ),
        ControllerInventory(
            controller="L3",
            stable_states=("I", "S", "M"),
            transient_states=("IS", "IM", "MI"),
        ),
    ),
)

THREE_LEVEL_MEUSI = ProtocolInventory(
    name="MEUSI",
    levels=3,
    controllers=(
        ControllerInventory(
            controller="L1",
            stable_states=("I", "N", "E", "M"),
            transient_states=tuple(f"T{i}" for i in range(10)) + ("NN",),
        ),
        ControllerInventory(
            controller="L2",
            stable_states=tuple(f"S{i}" for i in range(9)),
            transient_states=tuple(f"T{i}" for i in range(29))
            + tuple(f"NN{i}" for i in range(5)),
        ),
        ControllerInventory(
            controller="L3",
            stable_states=("I", "N", "M"),
            transient_states=("IN", "IM", "MI"),
        ),
    ),
)


INVENTORIES: Dict[Tuple[str, int], ProtocolInventory] = {
    ("MESI", 2): TWO_LEVEL_MESI,
    ("MEUSI", 2): TWO_LEVEL_MEUSI,
    ("MESI", 3): THREE_LEVEL_MESI,
    ("MEUSI", 3): THREE_LEVEL_MEUSI,
}


def extra_states_over_mesi(levels: int) -> Dict[str, int]:
    """Number of extra states MEUSI adds over MESI, per controller."""
    mesi = INVENTORIES[("MESI", levels)]
    meusi = INVENTORIES[("MEUSI", levels)]
    extra: Dict[str, int] = {}
    for controller in meusi.controllers:
        extra[controller.controller] = (
            controller.n_total - mesi.controller(controller.controller).n_total
        )
    return extra


def directory_type_field_bits(n_ops: int) -> int:
    """Bits needed to encode read-only plus ``n_ops`` commutative-update types.

    The paper's implementation supports eight operation types and therefore
    adds four bits per line (Sec. 5.1).
    """
    if n_ops < 0:
        raise ValueError("n_ops must be non-negative")
    n_codes = n_ops + 1
    bits = 0
    while (1 << bits) < n_codes:
        bits += 1
    return max(1, bits)
