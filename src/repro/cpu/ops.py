"""Micro-operation vocabulary for the trace-driven engine.

A workload is a ``TRACE_DTYPE`` structured numpy array of ``(kind,
address, size)`` records: the one format generators emit (through
:class:`TraceBuilder`) and all production code consumes.  The vocabulary
is deliberately small — it matches what the paper's trace-based analysis
needs:

* ``READ`` / ``WRITE`` — data accesses with an address and a size; the
  engine classifies the address as stack, heap or other.
* ``CALL`` / ``RET`` — stack-pointer movement.  A ``CALL`` pushes a frame of
  ``size`` bytes (SP moves down); a ``RET`` pops it (SP moves up).  The
  engine uses these to track the *active stack region*, the quantity behind
  SP awareness (Section II-A).
* ``COMPUTE`` — ``size`` ALU cycles with no memory traffic, used by the
  Normal/Poisson micro-benchmarks whose compute blocks increment a register
  a thousand times between bursts of stack writes.

:class:`Op` is one record as a Python object, for hand-written test
streams and the tests' per-op references; ``cpu.engine.trace_array`` packs
such a list once at the entry point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class OpKind(enum.IntEnum):
    """Discriminator for trace records."""

    READ = 0
    WRITE = 1
    CALL = 2
    RET = 3
    COMPUTE = 4


@dataclass(frozen=True)
class Op:
    """One micro-operation.

    ``address`` is meaningful for READ/WRITE; ``size`` is bytes for memory
    ops, frame bytes for CALL/RET, and ALU cycles for COMPUTE.
    """

    kind: OpKind
    address: int = 0
    size: int = 8

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"op size must be non-negative, got {self.size}")

    @property
    def is_memory(self) -> bool:
        return self.kind in (OpKind.READ, OpKind.WRITE)


#: Numpy dtype for bulk trace storage: (kind, address, size).
TRACE_DTYPE = np.dtype(
    [("kind", np.uint8), ("address", np.uint64), ("size", np.uint32)]
)
#: The empty op stream, e.g. for a thread whose stack is driven directly.
NO_OPS = np.empty(0, dtype=TRACE_DTYPE)


def ops_to_array(ops: list[Op]) -> np.ndarray:
    """Pack a list of :class:`Op` into a ``TRACE_DTYPE`` array."""
    n = len(ops)
    arr = np.empty(n, dtype=TRACE_DTYPE)
    arr["kind"] = np.fromiter((op.kind for op in ops), np.uint8, n)
    arr["address"] = np.fromiter((op.address for op in ops), np.uint64, n)
    arr["size"] = np.fromiter((op.size for op in ops), np.uint32, n)
    return arr


_OP_KINDS = tuple(OpKind)


def array_to_ops(arr: np.ndarray) -> list[Op]:
    """Unpack a ``TRACE_DTYPE`` array into :class:`Op` records."""
    kinds = _OP_KINDS
    return [
        Op(kinds[k], a, s)
        for k, a, s in zip(
            arr["kind"].tolist(), arr["address"].tolist(), arr["size"].tolist()
        )
    ]


class TraceBuilder:
    """Columnar accumulator for generating ``TRACE_DTYPE`` trace arrays.

    An append-style interface over plain integer columns and whole numpy
    chunks, so a trace is materialized directly as a structured array
    without ever constructing per-op objects.
    """

    __slots__ = ("_chunks", "_kinds", "_addrs", "_sizes", "_count")

    def __init__(self) -> None:
        self._chunks: list[np.ndarray] = []
        self._kinds: list[int] = []
        self._addrs: list[int] = []
        self._sizes: list[int] = []
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def append(self, kind: int, address: int = 0, size: int = 8) -> None:
        """Append one op (kind may be an :class:`OpKind` or its int value).

        Values are range-checked when the pending ops are packed (by the
        next :meth:`extend` or :meth:`to_array`), with :meth:`extend`'s
        check, so a bad op raises :class:`ValueError` there."""
        self._kinds.append(kind)
        self._addrs.append(address)
        self._sizes.append(size)
        self._count += 1

    # Convenience wrappers mirroring the op vocabulary.
    def read(self, address: int, size: int = 8) -> None:
        self.append(_READ, address, size)

    def write(self, address: int, size: int = 8) -> None:
        self.append(_WRITE, address, size)

    def call(self, frame_bytes: int) -> None:
        self.append(_CALL, 0, frame_bytes)

    def ret(self, frame_bytes: int) -> None:
        self.append(_RET, 0, frame_bytes)

    def compute(self, cycles: int) -> None:
        self.append(_COMPUTE, 0, cycles)

    def _flush_pending(self) -> None:
        if self._kinds:
            self._chunks.append(_pack(self._kinds, self._addrs, self._sizes))
            self._kinds, self._addrs, self._sizes = [], [], []

    def extend(self, kinds, addresses, sizes) -> None:
        """Append a vector of ops; each column may be an array, a sequence
        or a scalar, broadcast against the others.  Raises
        :class:`ValueError` on a value its column cannot hold (numpy would
        silently wrap it) or on column lengths that do not broadcast."""
        self._flush_pending()
        chunk = _pack(kinds, addresses, sizes)
        if len(chunk):
            self._chunks.append(chunk)
            self._count += len(chunk)

    def to_array(self) -> np.ndarray:
        """Materialize the accumulated ops as one ``TRACE_DTYPE`` array."""
        self._flush_pending()
        if not self._chunks:
            return np.empty(0, dtype=TRACE_DTYPE)
        if len(self._chunks) == 1:
            return self._chunks[0]
        return np.concatenate(self._chunks)


def _pack(kinds, addresses, sizes) -> np.ndarray:
    """One ``TRACE_DTYPE`` chunk from three broadcastable columns, each
    range-checked against its field (see :meth:`TraceBuilder.extend`)."""
    columns = []
    for name, values, limit in zip(_FIELDS, (kinds, addresses, sizes), _LIMITS):
        column = np.asarray(values)
        if column.dtype.kind not in "biu":
            # e.g. ints past int64 mixed with small ones come out float64.
            column = np.array(values, dtype=object)
        if column.size and (column.min() < 0 or column.max() > limit):
            raise ValueError(
                f"op {name} out of range [0, {limit}]: "
                f"min {column.min()}, max {column.max()}"
            )
        columns.append(column)
    try:
        shape = np.broadcast_shapes(*(column.shape for column in columns))
    except ValueError:
        shapes = ", ".join(
            f"{name} {column.shape}" for name, column in zip(_FIELDS, columns)
        )
        raise ValueError(f"op columns do not broadcast: {shapes}") from None
    chunk = np.empty(shape or 1, dtype=TRACE_DTYPE)
    for name, column in zip(_FIELDS, columns):
        chunk[name] = column
    return chunk


#: The columns of a trace and the largest value each holds.
_FIELDS = ("kind", "address", "size")
_LIMITS = (max(OpKind), 2**64 - 1, 2**32 - 1)
_READ = int(OpKind.READ)
_WRITE = int(OpKind.WRITE)
_CALL = int(OpKind.CALL)
_RET = int(OpKind.RET)
_COMPUTE = int(OpKind.COMPUTE)
