"""Commutative update operations supported by COUP.

The paper applies COUP to any commutative semigroup ``(G, o)`` and, for
multi-word cache blocks, requires a commutative *monoid* (an identity element
so that freshly granted update-only lines can be initialised without knowing
the current value).  This module defines the eight operation/data-type
combinations the paper evaluates (Sec. 5.1):

* integer addition on 16-, 32-, and 64-bit words,
* floating-point addition on 32- and 64-bit words,
* bitwise AND, OR, and XOR on 64-bit words,

plus a small registry so protocols, reduction units, and workloads can share
a single definition of "what does this operation do and what is its identity".

Values are modelled as Python ints/floats; integer operations wrap to the
declared word width so that delta buffering behaves like hardware registers.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence


class OpKind(enum.Enum):
    """The algebraic family an operation belongs to."""

    INT_ADD = "int_add"
    FP_ADD = "fp_add"
    BITWISE_AND = "and"
    BITWISE_OR = "or"
    BITWISE_XOR = "xor"


class CommutativeOp(enum.Enum):
    """The eight commutative-update instruction types evaluated in the paper."""

    ADD_I16 = "add_i16"
    ADD_I32 = "add_i32"
    ADD_I64 = "add_i64"
    ADD_F32 = "add_f32"
    ADD_F64 = "add_f64"
    AND_64 = "and_64"
    OR_64 = "or_64"
    XOR_64 = "xor_64"

    @property
    def spec(self) -> "OperationSpec":
        """The full operational definition of this op."""
        return _SPECS[self]

    @property
    def identity(self):
        """Identity element used to initialise lines entering the U state."""
        return _SPECS[self].identity

    @property
    def word_bytes(self) -> int:
        """Width, in bytes, of the word this op updates."""
        return _SPECS[self].word_bytes

    def apply(self, current, value):
        """Apply this op to ``current`` with operand ``value``."""
        return _SPECS[self].apply(current, value)

    def reduce(self, deltas: Iterable):
        """Fold an iterable of partial deltas into a single delta."""
        return _SPECS[self].reduce(deltas)


@dataclass(frozen=True)
class OperationSpec:
    """Functional definition of a commutative update operation.

    Attributes
    ----------
    op:
        The :class:`CommutativeOp` this spec belongs to.
    kind:
        Algebraic family (integer add, fp add, bitwise ...).
    word_bytes:
        Width of the updated word in bytes.
    identity:
        Identity element (the paper's requirement for multi-word blocks).
    fn:
        Binary operator implementing the update.
    signed:
        Whether integer values are interpreted as signed two's-complement.
    """

    op: CommutativeOp
    kind: OpKind
    word_bytes: int
    identity: object
    fn: Callable
    signed: bool = True

    def __post_init__(self) -> None:
        # Precompute the wrapping constants once; ``apply`` runs per
        # functionally-tracked update, so recomputing the mask there is
        # measurable.  object.__setattr__ because the dataclass is frozen.
        bits = self.word_bytes * 8
        object.__setattr__(self, "_mask", (1 << bits) - 1)
        object.__setattr__(self, "_sign_bit", 1 << (bits - 1))
        object.__setattr__(self, "_modulus", 1 << bits)
        object.__setattr__(
            self, "_wrap_signed", self.signed and self.kind is OpKind.INT_ADD
        )

    def _wrap(self, value):
        """Wrap an integer result to the word width (two's complement)."""
        if self.kind is OpKind.FP_ADD:
            return float(value)
        value &= self._mask
        if self._wrap_signed and value & self._sign_bit:
            value -= self._modulus
        return value

    def apply(self, current, value):
        """Apply the operation: ``current o value``, wrapped to word width."""
        return self._wrap(self.fn(current, value))

    def reduce(self, deltas: Iterable):
        """Reduce a collection of deltas to one delta (order-independent)."""
        result = self.identity
        for delta in deltas:
            result = self.apply(result, delta)
        return result

    def is_identity(self, value) -> bool:
        """Return True if ``value`` equals the identity element."""
        return value == self.identity


def _make_specs() -> dict:
    specs = {
        CommutativeOp.ADD_I16: OperationSpec(
            CommutativeOp.ADD_I16, OpKind.INT_ADD, 2, 0, operator.add
        ),
        CommutativeOp.ADD_I32: OperationSpec(
            CommutativeOp.ADD_I32, OpKind.INT_ADD, 4, 0, operator.add
        ),
        CommutativeOp.ADD_I64: OperationSpec(
            CommutativeOp.ADD_I64, OpKind.INT_ADD, 8, 0, operator.add
        ),
        CommutativeOp.ADD_F32: OperationSpec(
            CommutativeOp.ADD_F32, OpKind.FP_ADD, 4, 0.0, operator.add
        ),
        CommutativeOp.ADD_F64: OperationSpec(
            CommutativeOp.ADD_F64, OpKind.FP_ADD, 8, 0.0, operator.add
        ),
        CommutativeOp.AND_64: OperationSpec(
            CommutativeOp.AND_64,
            OpKind.BITWISE_AND,
            8,
            (1 << 64) - 1,
            operator.and_,
            signed=False,
        ),
        CommutativeOp.OR_64: OperationSpec(
            CommutativeOp.OR_64, OpKind.BITWISE_OR, 8, 0, operator.or_, signed=False
        ),
        CommutativeOp.XOR_64: OperationSpec(
            CommutativeOp.XOR_64, OpKind.BITWISE_XOR, 8, 0, operator.xor, signed=False
        ),
    }
    return specs


_SPECS = _make_specs()

#: Every operation the hardware implementation supports, in a stable order.
ALL_OPS: Sequence[CommutativeOp] = tuple(CommutativeOp)

#: Operations whose deltas are additive (used by privatization baselines).
ADDITIVE_OPS = (
    CommutativeOp.ADD_I16,
    CommutativeOp.ADD_I32,
    CommutativeOp.ADD_I64,
    CommutativeOp.ADD_F32,
    CommutativeOp.ADD_F64,
)

#: Bitwise logical operations (single supported word size, per the paper).
BITWISE_OPS = (CommutativeOp.AND_64, CommutativeOp.OR_64, CommutativeOp.XOR_64)


def commutes_with(op_a: CommutativeOp, op_b: CommutativeOp) -> bool:
    """Return True if updates of type ``op_a`` commute with type ``op_b``.

    COUP serialises updates of *different* types (Sec. 3.2): in general two
    distinct operations do not commute with each other (e.g. ``+`` and ``*``),
    so the protocol performs a full reduction when the update type changes.
    Updates of the same type always commute.
    """
    return op_a is op_b


class DeltaBuffer:
    """Per-cache-line buffer of partial updates held in the U state.

    Each private cache line in update-only mode holds, for every word offset
    that has been updated, the accumulated delta relative to the identity
    element.  Words that were never touched implicitly hold the identity, so a
    reduction can fold the whole line element-wise (Sec. 3.2, "larger cache
    blocks").
    """

    def __init__(self, op: CommutativeOp) -> None:
        self.op = op
        self._deltas: dict = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeltaBuffer(op={self.op.value}, deltas={self._deltas})"

    def update(self, offset: int, value) -> None:
        """Accumulate ``value`` into the delta for ``offset``."""
        current = self._deltas.get(offset, self.op.identity)
        self._deltas[offset] = self.op.apply(current, value)

    def delta(self, offset: int):
        """Return the accumulated delta at ``offset`` (identity if untouched)."""
        return self._deltas.get(offset, self.op.identity)

    def touched_offsets(self):
        """Offsets that have received at least one update."""
        return sorted(self._deltas)

    def merge_into(self, line_values: dict) -> dict:
        """Fold this buffer into ``line_values`` (offset -> word value)."""
        merged = dict(line_values)
        # repro-lint: disable=D102(per-offset fold of a commutative op; the merged dict is compared by value, never by order)
        for offset, delta in self._deltas.items():
            base = merged.get(offset, self.op.identity)
            merged[offset] = self.op.apply(base, delta)
        return merged

    def is_empty(self) -> bool:
        """True if no word has been updated (all words hold the identity)."""
        return all(
            self.op.spec.is_identity(value) for value in self._deltas.values()
        ) or not self._deltas

    def clear(self) -> None:
        self._deltas.clear()


def reduce_partial_updates(
    op: CommutativeOp, base_values: dict, buffers: Sequence[DeltaBuffer]
) -> dict:
    """Fold many private-cache delta buffers into the shared-cache copy.

    This is the functional behaviour of a *full reduction*: the shared cache's
    authoritative copy (``base_values``, mapping word offset to value) is
    combined element-wise with every partial update.  Because the operation is
    commutative and associative, the order of ``buffers`` does not affect the
    result; tests assert this property explicitly.
    """
    result = dict(base_values)
    for buffer in buffers:
        if buffer.op is not op:
            raise ValueError(
                f"cannot reduce buffer of type {buffer.op} with reduction type {op}"
            )
        result = buffer.merge_into(result)
    return result
