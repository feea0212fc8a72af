"""Trace-driven execution engine.

The engine is the simulator's main loop.  It consumes a sequence of
micro-operations (:mod:`repro.cpu.ops`), charges each op its latency from the
memory hierarchy, maintains the stack pointer through CALL/RET, routes
accesses to the persistence mechanisms protecting each region, and fires
interval hooks every *interval_cycles* of application progress — the
consistency-interval boundaries at which checkpoint mechanisms do their work.

Time accounting distinguishes:

* ``app_cycles`` — progress of the application itself (memory latency plus
  compute), what "execution time without persistence" measures;
* ``inline_cycles`` — extra critical-path cycles a mechanism adds to loads
  and stores (clwb, log appends, page faults, tracker interference);
* ``interval_cycles`` — cycles spent inside interval-boundary work
  (metadata inspection, copying, commits).

Normalized execution time as plotted in the paper (Figures 3, 8, 9) is then
``(app + inline + interval) / app``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from repro.config import SystemConfig, setup_i
from repro.cpu.ops import TRACE_DTYPE, OpKind, ops_to_array
from repro.cpu.registers import RegisterFile
from repro.memory.address import AddressRange
from repro.memory.hierarchy import MemoryHierarchy
from repro.persistence.base import IntervalContext, PersistenceMechanism

_WRITE = int(OpKind.WRITE)
_CALL = int(OpKind.CALL)
_RET = int(OpKind.RET)
_COMPUTE = int(OpKind.COMPUTE)


class IntervalWriteLog:
    """Bounded-memory log of stack-write addresses within one interval.

    Replaces the historical unbounded ``list[int]``: addresses live in a
    compact ``array('Q')`` (8 bytes each) plus, for the batched engine,
    zero-copy numpy chunks sliced straight out of the trace.  The only
    query the engine needs — how many logged writes landed below the
    interval-final SP — is answered with vectorized comparisons.
    """

    __slots__ = ("_scalar", "_chunks", "_chunk_count")

    def __init__(self) -> None:
        self._scalar = array("Q")
        self._chunks: list[np.ndarray] = []
        self._chunk_count = 0

    def __len__(self) -> int:
        return len(self._scalar) + self._chunk_count

    def append(self, address: int) -> None:
        self._scalar.append(address)

    def extend_array(self, addresses: np.ndarray) -> None:
        if len(addresses):
            self._chunks.append(addresses)
            self._chunk_count += len(addresses)

    def count_below(self, sp: int) -> int:
        """Number of logged addresses strictly below *sp*."""
        if sp <= 0:
            return 0
        total = 0
        if self._scalar:
            scalar = np.frombuffer(self._scalar, dtype=np.uint64)
            total += int(np.count_nonzero(scalar < np.uint64(sp)))
        for chunk in self._chunks:
            total += int(np.count_nonzero(chunk < sp))
        return total

    def clear(self) -> None:
        del self._scalar[:]
        self._chunks = []
        self._chunk_count = 0


def trace_array(ops) -> np.ndarray:
    """Coerce an op stream (Trace, TRACE_DTYPE array, or Op sequence) to
    a ``TRACE_DTYPE`` array: the one place an ``Op`` sequence is packed."""
    arr = getattr(ops, "array", ops)
    if isinstance(arr, np.ndarray):
        if arr.dtype != TRACE_DTYPE:
            raise TypeError(f"expected TRACE_DTYPE array, got {arr.dtype}")
        return arr
    return ops_to_array(list(ops))


@dataclass
class IntervalRecord:
    """Per-interval statistics the engine gathers for the analysis layer."""

    index: int
    end_cycle: int
    final_sp: int
    min_sp: int
    stack_writes: int
    stack_writes_beyond_final_sp: int
    checkpoint_cycles: int


@dataclass
class EngineStats:
    """Aggregate statistics of one run."""

    ops_executed: int = 0
    app_cycles: int = 0
    inline_cycles: int = 0
    interval_cycles: int = 0
    stack_reads: int = 0
    stack_writes: int = 0
    other_reads: int = 0
    other_writes: int = 0
    intervals: list[IntervalRecord] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        return self.app_cycles + self.inline_cycles + self.interval_cycles

    @property
    def normalized_time(self) -> float:
        """Execution time normalized to the no-persistence application time."""
        return self.total_cycles / self.app_cycles if self.app_cycles else 1.0

    @property
    def user_ipc(self) -> float:
        """Ops per application-visible cycle (inline overhead included).

        Mirrors the paper's user-space IPC metric for the tracking-overhead
        study (Figure 12): interval-boundary kernel work is excluded, but
        any slowdown the tracker imposes on user instructions is not.
        """
        user_cycles = self.app_cycles + self.inline_cycles
        return self.ops_executed / user_cycles if user_cycles else 0.0


class ExecutionEngine:
    """Runs one thread's trace against a machine model.

    Parameters
    ----------
    config:
        Machine configuration; defaults to the paper's Setup-I.
    stack_range:
        Virtual address range of the thread's stack.  The initial SP is the
        top of this range (stacks grow down).
    mechanism:
        Persistence mechanism protecting the stack region (may be
        :class:`~repro.persistence.none.NoPersistence`).
    heap_range / heap_mechanism:
        Optional second protected region, used by the full-memory-state
        experiments (Figure 9).
    fault_injector:
        Optional :class:`~repro.faults.injector.FaultInjector`.  Attached
        mechanisms pick it up for their named crash points, and the run
        loop polls its cycle deadline after every op so power can fail at
        an arbitrary cycle offset, not only at protocol steps.
    """

    def __init__(
        self,
        config: SystemConfig | None = None,
        stack_range: AddressRange | None = None,
        mechanism: PersistenceMechanism | None = None,
        heap_range: AddressRange | None = None,
        heap_mechanism: PersistenceMechanism | None = None,
        fixed_cost_scale: float = 1.0,
        fault_injector=None,
    ) -> None:
        from repro.persistence.none import NoPersistence

        self.config = config or setup_i()
        #: Scale applied by mechanisms to fixed per-wall-clock-event costs
        #: (copy latencies, checkpoint setup, background-thread wakeups) so
        #: they stay consistent with the runner's compressed clock; 1.0
        #: means real hardware latencies.  See repro.experiments.runner.
        self.fixed_cost_scale = fixed_cost_scale
        self.stack_range = stack_range or AddressRange(0x7000_0000, 0x7010_0000)
        self.heap_range = heap_range
        self.mechanism = mechanism or NoPersistence()
        self.heap_mechanism = heap_mechanism
        #: Set before attach so mechanisms can thread it into their
        #: checkpoint pipelines (named crash points).
        self.fault_injector = fault_injector

        nvm_regions: list[tuple[int, int]] = []
        if self.mechanism.region_in_nvm:
            nvm_regions.append((self.stack_range.start, self.stack_range.end))
        if heap_mechanism is not None and heap_mechanism.region_in_nvm:
            assert heap_range is not None
            nvm_regions.append((heap_range.start, heap_range.end))
        self.hierarchy = MemoryHierarchy(self.config, nvm_resident=nvm_regions)

        self.registers = RegisterFile(stack_pointer=self.stack_range.end)
        self.now = 0
        self.stats = EngineStats()

        self.mechanism.attach(self, self.stack_range)
        if heap_mechanism is not None:
            if heap_range is None:
                raise ValueError("heap_mechanism requires heap_range")
            heap_mechanism.attach(self, heap_range)

        # Interval bookkeeping.
        self._interval_index = 0
        self._interval_min_sp = self.registers.stack_pointer
        self._interval_writes = IntervalWriteLog()

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    def run(
        self,
        ops,
        interval_cycles: int = 0,
        interval_ops: int | None = None,
        final_checkpoint: bool = True,
    ) -> EngineStats:
        """Execute *ops* (anything :func:`trace_array` accepts); fire
        interval hooks periodically.

        Interval boundaries are either wall-clock (*interval_cycles* of
        simulated time, like the paper's 10 ms timer) or positional
        (*interval_ops* operations, used by the replay studies that need an
        SP oracle aligned with trace position).  ``interval_cycles == 0``
        with no *interval_ops* disables checkpointing (the vanilla
        baseline).  When *final_checkpoint* is set, a trailing partial
        interval is still committed, so every run ends in a consistent
        persisted state.
        """
        if interval_cycles < 0:
            raise ValueError("interval_cycles must be non-negative")
        if interval_ops is not None and interval_ops <= 0:
            raise ValueError("interval_ops must be positive")
        arr = trace_array(ops)
        periodic = bool(interval_cycles) or interval_ops is not None
        next_boundary = self.now + interval_cycles if interval_cycles else None
        ops_in_interval = 0
        if periodic:
            self._start_interval()

        injector = self.fault_injector
        for kind, address, size in zip(
            arr["kind"].tolist(), arr["address"].tolist(), arr["size"].tolist()
        ):
            self._execute(kind, address, size)
            if injector is not None:
                injector.check_cycle(self.now)
            ops_in_interval += 1
            boundary = False
            if interval_ops is not None:
                boundary = ops_in_interval >= interval_ops
            elif next_boundary is not None:
                boundary = self.now >= next_boundary
            if boundary:
                self._end_interval()
                if next_boundary is not None:
                    next_boundary = self.now + interval_cycles
                ops_in_interval = 0
                self._start_interval()

        # Commit the trailing partial interval, unless the last op landed
        # exactly on a boundary (nothing ran since the last checkpoint).
        if periodic and final_checkpoint and ops_in_interval > 0:
            self._end_interval()
        return self.stats

    def _execute(self, kind: int, address: int, size: int) -> None:
        self.stats.ops_executed += 1
        self.registers.op_index += 1

        if kind == _COMPUTE:
            self._advance(size)
            return

        if kind == _CALL:
            sp = self.registers.push_frame(size)
            if sp < self._interval_min_sp:
                self._interval_min_sp = sp
            if sp < self.stack_range.start:
                raise RuntimeError(
                    f"stack overflow: SP {sp:#x} below {self.stack_range.start:#x}"
                )
            self._advance(1)
            return

        if kind == _RET:
            self.registers.pop_frame(size)
            self._advance(1)
            return

        # Memory operation.
        is_write = kind == _WRITE
        result = self.hierarchy.access(address, size, is_write)
        self._advance(result.latency_cycles)

        stats = self.stats
        if self.stack_range.contains(address):
            mechanism = self.mechanism
            if is_write:
                stats.stack_writes += 1
                self._interval_writes.append(address)
            else:
                stats.stack_reads += 1
        else:
            heap = self.heap_range
            in_heap = heap is not None and heap.contains(address)
            mechanism = self.heap_mechanism if in_heap else None
            if is_write:
                stats.other_writes += 1
            else:
                stats.other_reads += 1
        if mechanism is None:
            return
        # The engine counts each access in its region mechanism's stats;
        # the hook only acts on it.
        if is_write:
            mechanism.stats.stores_seen += 1
            extra = mechanism.on_store(address, size, self.now)
        else:
            mechanism.stats.loads_seen += 1
            extra = mechanism.on_load(address, size, self.now)
        self._charge_inline(extra)

    def _advance(self, cycles: int) -> None:
        self.now += cycles
        self.stats.app_cycles += cycles
        self.hierarchy.now = self.now

    def _charge_inline(self, cycles: int) -> None:
        if cycles:
            self.now += cycles
            self.stats.inline_cycles += cycles
            self.hierarchy.now = self.now

    # ------------------------------------------------------------------ #
    # Interval boundaries
    # ------------------------------------------------------------------ #

    def _context(self) -> IntervalContext:
        return IntervalContext(
            interval_index=self._interval_index,
            now=self.now,
            final_sp=self.registers.stack_pointer,
            min_sp=self._interval_min_sp,
            region=self.stack_range,
        )

    def _heap_context(self) -> IntervalContext:
        """Interval context for the heap region.

        The heap has no stack pointer: ``final_sp``/``min_sp`` are pinned
        to the region base so SP-aware trimming keeps everything live.
        """
        assert self.heap_range is not None
        return IntervalContext(
            interval_index=self._interval_index,
            now=self.now,
            final_sp=self.heap_range.start,
            min_sp=self.heap_range.start,
            region=self.heap_range,
        )

    def _start_interval(self) -> None:
        spent = self.mechanism.on_interval_start(self._context())
        if self.heap_mechanism is not None:
            spent += self.heap_mechanism.on_interval_start(self._heap_context())
        self._charge_interval(spent)
        self._interval_min_sp = self.registers.stack_pointer
        self._interval_writes.clear()

    def _end_interval(self) -> None:
        spent = self.mechanism.on_interval_end(self._context())
        if self.heap_mechanism is not None:
            spent += self.heap_mechanism.on_interval_end(self._heap_context())
        self._charge_interval(spent)

        final_sp = self.registers.stack_pointer
        self.stats.intervals.append(
            IntervalRecord(
                index=self._interval_index,
                end_cycle=self.now,
                final_sp=final_sp,
                min_sp=self._interval_min_sp,
                stack_writes=len(self._interval_writes),
                stack_writes_beyond_final_sp=self._interval_writes.count_below(
                    final_sp
                ),
                checkpoint_cycles=spent,
            )
        )
        self._interval_index += 1

    def _charge_interval(self, cycles: int) -> None:
        if cycles:
            self.now += cycles
            self.stats.interval_cycles += cycles
            self.hierarchy.now = self.now
