"""Packed columnar representation of memory-access traces.

A :class:`~repro.sim.access.WorkloadTrace` stores one Python object per
access — flexible, but ~100+ bytes per record, slow to generate in bulk, and
expensive to cache or ship between processes.  :class:`ColumnarTrace` packs
the same information into one NumPy structured array per core:

========== ===== =======================================================
field      dtype contents
========== ===== =======================================================
type_code  u1    access type + commutative op + width + value kind,
                 folded into one code (see the layout below)
address    u8    byte address
value_delta i8   operand value: the integer itself, the two's-complement
                 wrap of a uint64 operand, or the IEEE-754 bit pattern of
                 a float operand (which kind is recorded in ``type_code``)
compute_gap f8   think instructions since the previous access (an exact
                 small integer stored as a double, so the simulator can
                 multiply by CPI without an int->float conversion)
phase      u4    phase index of the access (derived from the trace's
                 phase boundaries; informational — the boundaries array
                 is authoritative and round-trips exactly)
========== ===== =======================================================

The converters are exact and order-preserving: ``pack -> unpack`` returns
accesses that compare equal (``MemoryAccess.__eq__``) in the original order.
The simulator runs this form only (an object-form trace is packed on entry).
Every trace builder emits columns directly: the workloads and the
privatization builder with array operations (:func:`make_columns`), the
sequential ones (reference counting, SNZI, Refcache) through
:class:`ColumnBuilder`.  ``Workload.generate`` unpacks a trace to the object
form for callers that inspect individual accesses.

``type_code`` layout (104 codes):

* ``0..15``  — LOAD:  ``size_slot * 4 + value_kind``
* ``16..31`` — STORE: ``16 + size_slot * 4 + value_kind``
* ``32..55`` — ATOMIC_RMW:          ``32 + op_index * 3 + (value_kind - 1)``
* ``56..79`` — COMMUTATIVE_UPDATE:  ``56 + ...``
* ``80..103``— REMOTE_UPDATE:       ``80 + ...``

where ``size_slot`` indexes ``(1, 2, 4, 8)`` bytes, ``value_kind`` is
``0=None, 1=int64, 2=uint64, 3=float64``, and ``op_index`` indexes
:data:`repro.core.commutative.ALL_OPS` (update widths are implied by the
op).  The ranges are ordered so cheap integer comparisons classify a code:
``code >= 16`` is an update (store or RMW), ``code >= 32`` is an
atomic/commutative/remote update.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.commutative import ALL_OPS, CommutativeOp
from repro.sim.access import AccessType, MemoryAccess, Trace, WorkloadTrace

#: Packed per-access record: 29 bytes (unaligned) vs ~100+ for the object form.
ACCESS_DTYPE = np.dtype(
    [
        ("type_code", "u1"),
        ("address", "u8"),
        ("value_delta", "i8"),
        ("compute_gap", "f8"),
        ("phase", "u4"),
    ]
)

#: Value-kind slots recorded in ``type_code``.
VK_NONE, VK_INT, VK_UINT, VK_FLOAT = 0, 1, 2, 3

#: Access widths representable for loads and stores.
_LOAD_STORE_SIZES = (1, 2, 4, 8)

#: Range boundaries of the ``type_code`` layout, one per access-type block
#: (derived below and asserted against the generated table, so a change to
#: the table cannot silently desynchronize consumers like the simulator's
#: columnar dispatch).
#: Codes >= this are updates (stores, atomics, commutative, remote).
UPDATE_MIN_CODE = 16
#: Codes >= this are atomic/commutative/remote updates (Table 2 statistics).
COMM_MIN_CODE = 32
#: First commutative-update code (atomics occupy [COMM_MIN_CODE, this)).
COMMUTATIVE_MIN_CODE = 56
#: First remote-update code (commutative updates occupy up to here).
REMOTE_MIN_CODE = 80

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
_UINT64_MAX = (1 << 64) - 1
_TWO64 = 1 << 64
#: Largest think count a float64 stores exactly.
_MAX_EXACT_GAP = 1 << 53

_PACK_F64 = struct.Struct("<d").pack
_UNPACK_F64 = struct.Struct("<d").unpack
_PACK_I64 = struct.Struct("<q").pack
_UNPACK_I64 = struct.Struct("<q").unpack


class TraceCodecError(ValueError):
    """An access cannot be represented in the packed columnar format."""


def _build_code_tables():
    """Static code tables: one u1 per (type, op, size, value-kind) combo."""
    code_type: List[AccessType] = []
    code_op: List[Optional[CommutativeOp]] = []
    code_size: List[int] = []
    code_vk: List[int] = []
    pack: Dict[Tuple[AccessType, Optional[CommutativeOp], int, int], int] = {}

    def emit(access_type, op, size, vk):
        code = len(code_type)
        code_type.append(access_type)
        code_op.append(op)
        code_size.append(size)
        code_vk.append(vk)
        pack[(access_type, op, size, vk)] = code

    for access_type in (AccessType.LOAD, AccessType.STORE):
        for size in _LOAD_STORE_SIZES:
            for vk in (VK_NONE, VK_INT, VK_UINT, VK_FLOAT):
                emit(access_type, None, size, vk)
    for access_type in (
        AccessType.ATOMIC_RMW,
        AccessType.COMMUTATIVE_UPDATE,
        AccessType.REMOTE_UPDATE,
    ):
        for op in ALL_OPS:
            for vk in (VK_INT, VK_UINT, VK_FLOAT):
                emit(access_type, op, op.word_bytes, vk)
    return tuple(code_type), tuple(code_op), tuple(code_size), tuple(code_vk), pack


CODE_ACCESS_TYPE, CODE_OP, CODE_SIZE, CODE_VALUE_KIND, _PACK_CODE = _build_code_tables()
N_CODES = len(CODE_ACCESS_TYPE)

#: ``(type, op, width)`` -> a ``type_code`` of that shape, for a caller that
#: passes the operand value unencoded (``CoherenceProtocol.access``): the
#: value kind only matters when a packed operand is decoded.
CODE_OF_SHAPE = {
    (CODE_ACCESS_TYPE[code], CODE_OP[code], CODE_SIZE[code]): code
    for code in range(N_CODES)
}

#: The published range boundaries must match the generated table exactly.
assert CODE_ACCESS_TYPE[UPDATE_MIN_CODE - 1] is AccessType.LOAD
assert CODE_ACCESS_TYPE[UPDATE_MIN_CODE] is AccessType.STORE
assert CODE_ACCESS_TYPE[COMM_MIN_CODE - 1] is AccessType.STORE
assert CODE_ACCESS_TYPE[COMM_MIN_CODE] is AccessType.ATOMIC_RMW
assert CODE_ACCESS_TYPE[COMMUTATIVE_MIN_CODE - 1] is AccessType.ATOMIC_RMW
assert CODE_ACCESS_TYPE[COMMUTATIVE_MIN_CODE] is AccessType.COMMUTATIVE_UPDATE
assert CODE_ACCESS_TYPE[REMOTE_MIN_CODE - 1] is AccessType.COMMUTATIVE_UPDATE
assert CODE_ACCESS_TYPE[REMOTE_MIN_CODE] is AccessType.REMOTE_UPDATE
assert CODE_ACCESS_TYPE[N_CODES - 1] is AccessType.REMOTE_UPDATE

#: NumPy lookup table: code -> value kind, for vectorized value decoding.
_VK_LUT = np.array(CODE_VALUE_KIND, dtype=np.uint8)

#: Access-kind slots used by the batched simulation kernel's vectorized
#: dispatch: 0=LOAD, 1=STORE, 2=ATOMIC_RMW, 3=COMMUTATIVE, 4=REMOTE.
KIND_LOAD, KIND_STORE, KIND_ATOMIC, KIND_COMMUTATIVE, KIND_REMOTE = range(5)

_KIND_OF_TYPE = {
    AccessType.LOAD: KIND_LOAD,
    AccessType.STORE: KIND_STORE,
    AccessType.ATOMIC_RMW: KIND_ATOMIC,
    AccessType.COMMUTATIVE_UPDATE: KIND_COMMUTATIVE,
    AccessType.REMOTE_UPDATE: KIND_REMOTE,
}

#: NumPy lookup table: code -> access kind (``KIND_*``), for the batched
#: kernel's vectorized classification (`kinds = CODE_KIND[codes]`).
CODE_KIND = np.array(
    [_KIND_OF_TYPE[access_type] for access_type in CODE_ACCESS_TYPE], dtype=np.uint8
)

#: Sentinel for "no commutative op" in :data:`CODE_OP_INDEX`.
NO_OP_INDEX = 255

#: NumPy lookup table: code -> index into :data:`ALL_OPS` (or
#: :data:`NO_OP_INDEX` for loads/stores).  The batched kernel compares these
#: against the directory entry's op index to vectorize MEUSI's
#: same-update-type rule for U-state lines.
CODE_OP_INDEX = np.array(
    [ALL_OPS.index(op) if op is not None else NO_OP_INDEX for op in CODE_OP],
    dtype=np.uint8,
)


def encode_value(value) -> Tuple[int, int]:
    """``(value_kind, value_delta)`` for one operand value."""
    if value is None:
        return VK_NONE, 0
    if isinstance(value, float):
        return VK_FLOAT, _UNPACK_I64(_PACK_F64(value))[0]
    if isinstance(value, int):
        if value > _INT64_MAX:
            if value > _UINT64_MAX:
                raise TraceCodecError(f"integer operand out of uint64 range: {value}")
            return VK_UINT, value - _TWO64
        if value < _INT64_MIN:
            raise TraceCodecError(f"integer operand out of int64 range: {value}")
        return VK_INT, value
    raise TraceCodecError(f"unrepresentable operand value: {value!r}")


def decode_value(value_kind: int, delta: int):
    """Inverse of :func:`encode_value`."""
    if value_kind == VK_NONE:
        return None
    if value_kind == VK_INT:
        return delta
    if value_kind == VK_UINT:
        return delta % _TWO64
    return _UNPACK_F64(_PACK_I64(delta))[0]


def code_for(
    access_type: AccessType,
    op: Optional[CommutativeOp],
    size_bytes: int,
    value_kind: int,
) -> int:
    """The ``type_code`` for a (type, op, width, value-kind) combination."""
    try:
        return _PACK_CODE[(access_type, op, size_bytes, value_kind)]
    except KeyError:
        raise TraceCodecError(
            f"unrepresentable access shape: type={access_type}, op={op}, "
            f"size_bytes={size_bytes}, value_kind={value_kind}"
        ) from None


def encode_access(access: MemoryAccess) -> Tuple[int, int]:
    """``(type_code, value_delta)`` for one access record."""
    value_kind, delta = encode_value(access.value)
    think = access.think_instructions
    if think > _MAX_EXACT_GAP:
        raise TraceCodecError(f"think_instructions too large for exact f8: {think}")
    return code_for(access.access_type, access.op, access.size_bytes, value_kind), delta


def pack_accesses(accesses: Sequence[MemoryAccess]) -> np.ndarray:
    """Pack one core's access list into a structured array (phase left 0)."""
    n = len(accesses)
    array = np.empty(n, dtype=ACCESS_DTYPE)
    codes = array["type_code"]
    addresses = array["address"]
    deltas = array["value_delta"]
    gaps = array["compute_gap"]
    for index, access in enumerate(accesses):
        code, delta = encode_access(access)
        codes[index] = code
        addresses[index] = access.address
        deltas[index] = delta
        gaps[index] = access.think_instructions
    array["phase"] = 0
    return array


def decode_values(array: np.ndarray) -> list:
    """Decode the value column of a packed array into Python objects.

    Vectorized: one pass per value kind present, no per-element branching.
    """
    raw = array["value_delta"]
    kinds = _VK_LUT[array["type_code"]]
    out = raw.astype(object)  # Python ints (the VK_INT case)
    mask = kinds == VK_FLOAT
    if mask.any():
        out[mask] = raw.view(np.float64).astype(object)[mask]
    mask = kinds == VK_UINT
    if mask.any():
        out[mask] = raw.view(np.uint64).astype(object)[mask]
    mask = kinds == VK_NONE
    if mask.any():
        out[mask] = None
    return out.tolist()


def unpack_accesses(array: np.ndarray) -> Trace:
    """Unpack a structured array back into a list of :class:`MemoryAccess`."""
    codes = array["type_code"].tolist()
    addresses = array["address"].tolist()
    gaps = array["compute_gap"].tolist()
    values = decode_values(array)
    types = CODE_ACCESS_TYPE
    ops = CODE_OP
    sizes = CODE_SIZE
    new = MemoryAccess.__new__
    trace: Trace = []
    append = trace.append
    for index, code in enumerate(codes):
        # Fields were validated when the trace was first built; __new__ plus
        # slot stores skips re-running the constructor checks per access.
        access = new(MemoryAccess)
        access.access_type = types[code]
        access.address = addresses[index]
        access.op = ops[code]
        access.value = values[index]
        access.think_instructions = int(gaps[index])
        access.size_bytes = sizes[code]
        append(access)
    return trace


def make_columns(codes, addresses, deltas, gaps) -> np.ndarray:
    """Assemble a packed per-core array from parallel column values.

    Used by vectorized workload builders; each argument may be a NumPy array,
    a Python sequence, or a scalar (broadcast).  ``deltas`` must already be
    int64-encoded (see :func:`encode_value` / :func:`float_deltas`).
    """
    n = max(
        np.shape(column)[0]
        for column in (codes, addresses, deltas, gaps)
        if np.ndim(column)
    )
    array = np.empty(n, dtype=ACCESS_DTYPE)
    array["type_code"] = codes
    array["address"] = addresses
    array["value_delta"] = deltas
    array["compute_gap"] = gaps
    array["phase"] = 0
    return array


def float_deltas(values) -> np.ndarray:
    """Encode float operand values as int64 bit patterns (vectorized)."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


class ColumnBuilder:
    """Incremental builder of one core's packed columns.

    For generators whose control flow is inherently sequential (RNG draws
    that depend on earlier draws, SNZI and Refcache state): :meth:`append`
    takes a ``type_code`` (see :func:`code_for`), an address, an
    int64-encoded operand and a think-instruction count, collecting plain
    int lists that :meth:`build` packs once at the end.
    """

    __slots__ = ("codes", "addresses", "deltas", "gaps")

    def __init__(self) -> None:
        self.codes: List[int] = []
        self.addresses: List[int] = []
        self.deltas: List[int] = []
        self.gaps: List[int] = []

    def append(self, code: int, address: int, delta: int, gap: int) -> None:
        self.codes.append(code)
        self.addresses.append(address)
        self.deltas.append(delta)
        self.gaps.append(gap)

    def __len__(self) -> int:
        return len(self.codes)

    def build(self) -> np.ndarray:
        array = np.empty(len(self.codes), dtype=ACCESS_DTYPE)
        array["type_code"] = self.codes
        array["address"] = self.addresses
        array["value_delta"] = self.deltas
        array["compute_gap"] = self.gaps
        array["phase"] = 0
        return array


class ColumnarTrace:
    """Packed traces for all cores plus workload metadata.

    The columnar dual of :class:`~repro.sim.access.WorkloadTrace`: ``columns``
    holds one structured array per core (index == core id), and
    ``phase_boundaries`` has the same meaning and layout as on the object
    form.  The simulator consumes this form natively; the converters are
    exact in both directions.
    """

    __slots__ = ("name", "columns", "params", "phase_boundaries", "_shm")

    def __init__(
        self,
        name: str,
        columns: List[np.ndarray],
        params: Optional[dict] = None,
        phase_boundaries: Optional[List[List[int]]] = None,
    ) -> None:
        self.name = name
        self.columns = [np.asarray(column, dtype=ACCESS_DTYPE) for column in columns]
        self.params = params if params is not None else {}
        self.phase_boundaries = phase_boundaries
        #: Shared-memory segment backing ``columns``, if attached (kept alive
        #: here so the buffer outlives every view into it).
        self._shm = None
        if phase_boundaries:
            self._fill_phase_column()

    def _fill_phase_column(self) -> None:
        """Derive the informational per-access phase index from boundaries."""
        boundaries = np.asarray(self.phase_boundaries, dtype=np.int64)
        for core_id, column in enumerate(self.columns):
            if not len(column):
                continue
            if not column.flags.writeable:
                continue  # shared-memory view: phase was filled by the owner
            counts = boundaries[:, core_id]
            # phase[j] == number of boundaries <= j.  Boundaries are
            # cumulative (monotone), so a searchsorted over the access
            # indices computes every phase at once.
            if np.all(counts[:-1] <= counts[1:]):
                column["phase"] = np.searchsorted(
                    counts, np.arange(len(column)), side="right"
                ).astype(np.uint32)
            else:  # pathological non-monotone boundaries: exact O(P*N) count
                column["phase"] = np.count_nonzero(
                    counts[None, :] <= np.arange(len(column))[:, None], axis=1
                ).astype(np.uint32)

    # -- conversions -----------------------------------------------------------

    @classmethod
    def from_workload(cls, trace: WorkloadTrace) -> "ColumnarTrace":
        """Pack an object-form trace; exact and order-preserving."""
        columns = [pack_accesses(core_trace) for core_trace in trace.per_core]
        boundaries = (
            [list(bounds) for bounds in trace.phase_boundaries]
            if trace.phase_boundaries is not None
            else None
        )
        return cls(
            name=trace.name,
            columns=columns,
            params=dict(trace.params),
            phase_boundaries=boundaries,
        )

    def to_workload(self) -> WorkloadTrace:
        """Unpack to the object form; exact and order-preserving."""
        boundaries = (
            [list(bounds) for bounds in self.phase_boundaries]
            if self.phase_boundaries is not None
            else None
        )
        return WorkloadTrace(
            name=self.name,
            per_core=[unpack_accesses(column) for column in self.columns],
            params=dict(self.params),
            phase_boundaries=boundaries,
        )

    # -- WorkloadTrace-compatible reporting API --------------------------------

    @property
    def n_cores(self) -> int:
        return len(self.columns)

    @property
    def total_accesses(self) -> int:
        return sum(len(column) for column in self.columns)

    @property
    def total_instructions(self) -> int:
        """Total instructions (memory + think) across all cores."""
        return sum(
            len(column) + int(column["compute_gap"].astype(np.int64).sum())
            for column in self.columns
        )

    @property
    def nbytes(self) -> int:
        """Packed size of all per-core arrays."""
        return sum(column.nbytes for column in self.columns)

    def update_read_counts(self) -> Tuple[int, int]:
        """``(update_accesses, read_accesses)`` per ``AccessType.is_update``."""
        updates = sum(
            int(np.count_nonzero(column["type_code"] >= UPDATE_MIN_CODE))
            for column in self.columns
        )
        return updates, self.total_accesses - updates

    def commutative_fraction(self) -> float:
        """Fraction of instructions that are commutative/atomic updates."""
        updates = sum(
            int(np.count_nonzero(column["type_code"] >= COMM_MIN_CODE))
            for column in self.columns
        )
        total = self.total_instructions
        return updates / total if total else 0.0

    def validate(self) -> None:
        """Sanity-check the phase structure (mirrors WorkloadTrace)."""
        if self.phase_boundaries is None:
            return
        for boundaries in self.phase_boundaries:
            if len(boundaries) != self.n_cores:
                raise ValueError("each phase boundary must list one index per core")
            for core_id, bound in enumerate(boundaries):
                if not 0 <= bound <= len(self.columns[core_id]):
                    raise ValueError(
                        f"phase boundary {bound} out of range for core {core_id}"
                    )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarTrace):
            return NotImplemented
        return (
            self.name == other.name
            and self.params == other.params
            and self.phase_boundaries == other.phase_boundaries
            and len(self.columns) == len(other.columns)
            and all(
                np.array_equal(mine, theirs)
                for mine, theirs in zip(self.columns, other.columns)
            )
        )

    # -- persistence -----------------------------------------------------------

    def save_npz(self, path: str, extra_meta: Optional[dict] = None) -> None:
        """Persist to a compressed ``.npz`` file (atomic replace).

        Packed access streams deflate extremely well (repeated type codes
        and think gaps, arithmetic address sequences): ~2-3 bytes per access
        on disk vs 29 in memory, for milliseconds of zlib time.

        ``extra_meta`` is stored alongside the trace metadata and surfaced
        by :func:`load_npz_meta`; the sweep engine's trace store uses it to
        verify that a cache file really holds the trace its name claims.
        """
        meta = {"name": self.name, "params": self.params}
        if extra_meta:
            meta["extra"] = extra_meta
        payload = {f"core_{i}": column for i, column in enumerate(self.columns)}
        payload["meta"] = np.array(json.dumps(meta, sort_keys=True))
        if self.phase_boundaries is not None:
            payload["boundaries"] = np.asarray(self.phase_boundaries, dtype=np.int64)
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".npz.tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez_compressed(handle, **payload)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    @classmethod
    def load_npz(cls, path: str) -> "ColumnarTrace":
        """Load a trace previously written by :meth:`save_npz`."""
        trace, _extra = cls.load_npz_with_meta(path)
        return trace

    @classmethod
    def load_npz_with_meta(cls, path: str) -> Tuple["ColumnarTrace", Optional[dict]]:
        """Load a trace plus the ``extra_meta`` it was saved with."""
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"][()]))
            columns = []
            index = 0
            while f"core_{index}" in data:
                columns.append(np.asarray(data[f"core_{index}"], dtype=ACCESS_DTYPE))
                index += 1
            boundaries = None
            if "boundaries" in data:
                boundaries = [list(map(int, row)) for row in data["boundaries"]]
        trace = cls(
            name=meta["name"],
            columns=columns,
            params=meta["params"],
            phase_boundaries=boundaries,
        )
        return trace, meta.get("extra")


def as_columnar(trace) -> ColumnarTrace:
    """Coerce either trace form to columnar (no-op for ColumnarTrace)."""
    if isinstance(trace, ColumnarTrace):
        return trace
    return ColumnarTrace.from_workload(trace)
