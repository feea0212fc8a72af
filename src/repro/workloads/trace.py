"""Trace container and trace-level statistics.

A :class:`Trace` couples an operation stream with the address-space layout
it was generated against (stack range, optional heap range) so an
experiment can build a matching engine without re-deriving layout.  The
statistics here power the motivation figures (stack-op fraction for Fig. 1,
writes beyond the final SP for Fig. 2, page- vs byte-granularity copy size
for Fig. 4) directly from a trace, without running the timing model.

The op stream is stored only as a ``TRACE_DTYPE`` structured numpy array:
what the generators emit, what both engines, the kernel model, the fuzzer
and the experiments consume, and what :mod:`repro.workloads.serialize`
writes.  Hand-built :class:`~repro.cpu.ops.Op` lists are packed once by
:func:`repro.cpu.engine.trace_array` before they reach a ``Trace``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cpu.ops import TRACE_DTYPE, OpKind
from repro.memory.address import AddressRange

_WRITE = int(OpKind.WRITE)
_CALL = int(OpKind.CALL)
_RET = int(OpKind.RET)


@dataclass
class TraceStats:
    """Counts derived from a trace (no timing involved)."""

    total_ops: int = 0
    memory_ops: int = 0
    stack_reads: int = 0
    stack_writes: int = 0
    other_reads: int = 0
    other_writes: int = 0

    @property
    def stack_ops(self) -> int:
        return self.stack_reads + self.stack_writes

    @property
    def stack_fraction(self) -> float:
        """Fraction of memory operations hitting the stack (Figure 1)."""
        return self.stack_ops / self.memory_ops if self.memory_ops else 0.0

    @property
    def stack_write_fraction(self) -> float:
        writes = self.stack_writes + self.other_writes
        return self.stack_writes / writes if writes else 0.0


class Trace:
    """A generated workload: operations plus the layout they assume.

    *ops* must be a ``TRACE_DTYPE`` structured array.
    """

    __slots__ = ("_array", "stack_range", "heap_range", "name", "initial_sp",
                 "_stats")

    def __init__(
        self,
        ops: np.ndarray,
        stack_range: AddressRange,
        heap_range: AddressRange | None = None,
        name: str = "trace",
        initial_sp: int | None = None,
    ) -> None:
        if not isinstance(ops, np.ndarray) or ops.dtype != TRACE_DTYPE:
            raise TypeError(f"trace ops must be a TRACE_DTYPE array, got {type(ops)}")
        self._array = ops
        self.stack_range = stack_range
        self.heap_range = heap_range
        self.name = name
        #: Initial SP (top of stack); generators may start below the top.
        self.initial_sp = initial_sp
        self._stats: TraceStats | None = None

    @property
    def array(self) -> np.ndarray:
        """The ``TRACE_DTYPE`` array of the op stream."""
        return self._array

    @property
    def ops(self) -> np.ndarray:
        """Alias of :attr:`array`; ``perfbench/workloads.py`` still reads it."""
        return self._array

    def __len__(self) -> int:
        return len(self._array)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Trace(name={self.name!r}, ops={len(self)}, "
            f"stack_range={self.stack_range!r})"
        )

    @property
    def stats(self) -> TraceStats:
        if self._stats is None:
            self._stats = self._compute_stats()
        return self._stats

    def _compute_stats(self) -> TraceStats:
        arr = self.array
        kinds = arr["kind"]
        addrs = arr["address"]
        stack = self.stack_range
        in_stack = (addrs >= stack.start) & (addrs < stack.end)
        is_read = kinds == int(OpKind.READ)
        is_write = kinds == int(OpKind.WRITE)
        stack_reads = int(np.count_nonzero(is_read & in_stack))
        stack_writes = int(np.count_nonzero(is_write & in_stack))
        reads = int(np.count_nonzero(is_read))
        writes = int(np.count_nonzero(is_write))
        return TraceStats(
            total_ops=len(arr),
            memory_ops=reads + writes,
            stack_reads=stack_reads,
            stack_writes=stack_writes,
            other_reads=reads - stack_reads,
            other_writes=writes - stack_writes,
        )

    # ------------------------------------------------------------------ #
    # Interval-based trace analysis (motivation experiments)
    # ------------------------------------------------------------------ #

    def _interval_bounds(self, num_intervals: int) -> list[tuple[int, int]]:
        """Half-open index bounds of the equal-op interval chunks.

        A trailing remainder shorter than one chunk is dropped.
        """
        if num_intervals <= 0:
            raise ValueError("num_intervals must be positive")
        n = len(self)
        chunk = max(1, n // num_intervals)
        bounds = []
        for i in range(num_intervals):
            lo = min(i * chunk, n)
            hi = min(lo + chunk, n)
            if hi > lo:
                bounds.append((lo, hi))
        return bounds

    def _stack_write_mask(self) -> np.ndarray:
        """Boolean mask of the WRITE ops whose address lies in the stack."""
        arr = self.array
        addrs = arr["address"]
        stack = self.stack_range
        return (arr["kind"] == _WRITE) & (addrs >= stack.start) & (addrs < stack.end)

    def stack_write_runs(self, ends) -> list[tuple[list[int], list[int]]]:
        """(addresses, sizes) of the stack writes, cut at trace positions *ends*.

        Run k holds the writes among ops ``[ends[k-1], ends[k])`` (from op 0
        for k = 0); one more run holds the rest.  The tracker replay studies
        feed each run to a bare tracker, then do their boundary work.
        """
        mask = self._stack_write_mask()
        addrs = self.array["address"][mask].tolist()
        sizes = self.array["size"][mask].tolist()
        cuts = [0, *np.searchsorted(np.flatnonzero(mask), ends).tolist(), len(addrs)]
        return [(addrs[lo:hi], sizes[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]

    def sp_path(self) -> np.ndarray:
        """SP value after each op (CALL pushes, RET pops, others hold)."""
        arr = self.array
        kinds = arr["kind"]
        sizes = arr["size"].astype(np.int64)
        delta = np.zeros(len(arr), dtype=np.int64)
        calls = kinds == _CALL
        rets = kinds == _RET
        delta[calls] = -sizes[calls]
        delta[rets] = sizes[rets]
        sp0 = self.initial_sp if self.initial_sp is not None else self.stack_range.end
        return sp0 + np.cumsum(delta)

    def writes_beyond_final_sp(self, num_intervals: int) -> list[tuple[int, int]]:
        """Per interval: (total stack writes, writes below the final SP).

        Replays SP movement through CALL/RET and, for every interval, counts
        stack writes whose address ends up below the interval-final SP —
        writes to frames already popped, the waste SP-unaware mechanisms do
        (Figure 2).
        """
        bounds = self._interval_bounds(num_intervals)
        arr = self.array
        addrs = arr["address"].astype(np.int64)
        stack_write = self._stack_write_mask()
        path = self.sp_path()
        results: list[tuple[int, int]] = []
        for lo, hi in bounds:
            final_sp = int(path[hi - 1])
            write_addrs = addrs[lo:hi][stack_write[lo:hi]]
            results.append(
                (
                    len(write_addrs),
                    int(np.count_nonzero(write_addrs < final_sp)),
                )
            )
        return results

    def final_sp_per_interval(self, num_intervals: int) -> list[int]:
        """SP value at the end of each trace-time interval (the SP oracle)."""
        path = self.sp_path()
        return [int(path[hi - 1]) for _, hi in self._interval_bounds(num_intervals)]

    def copy_sizes(
        self, num_intervals: int, granularity: int
    ) -> list[int]:
        """Checkpoint copy size per interval at the given dirty granularity.

        *granularity* may be a sub-page granule (8..128) or the page size —
        the same post-processing the paper applies for Figure 4.
        """
        if granularity <= 0:
            raise ValueError("granularity must be positive")
        arr = self.array
        addrs = arr["address"].astype(np.int64)
        sizes = arr["size"].astype(np.int64)
        stack_write = self._stack_write_mask() & (sizes > 0)
        firsts_all = addrs // granularity
        lasts_all = (addrs + sizes - 1) // granularity
        out: list[int] = []
        for lo, hi in self._interval_bounds(num_intervals):
            mask = stack_write[lo:hi]
            firsts = firsts_all[lo:hi][mask]
            lasts = lasts_all[lo:hi][mask]
            if not len(firsts):
                out.append(0)
                continue
            pieces = [firsts, lasts]
            # Accesses spanning 3+ granules (rare) need their interior runs.
            wide = lasts - firsts > 1
            for f, l in zip(firsts[wide].tolist(), lasts[wide].tolist()):
                pieces.append(np.arange(f + 1, l, dtype=np.int64))
            dirty = np.unique(np.concatenate(pieces))
            out.append(len(dirty) * granularity)
        return out
