"""The per-core Prosper dirty-tracker hardware (Sections III-B, III-D).

The tracker sits beside L1D.  For every demand store it compares the virtual
address against the stack range in the MSRs (the comparator circuit); stores
of interest (SOIs) have their covered granules recorded through the
coalescing lookup table into the DRAM dirty bitmap — *off the critical path*
of the store itself.  The only cost the application perceives is memory-
bandwidth interference from tracker-generated bitmap loads/stores, which the
engine charges as a small per-operation penalty.

The tracker also:

* maintains the lowest dirtied stack address of the interval, shared with
  the OS so bitmap inspection can be limited to the active stack region;
* implements the two-step quiescence protocol — the OS requests a flush,
  then polls the outstanding-operation counter before consuming the bitmap;
* supports save/restore of its architectural state on context switches
  (Section III-C), costing roughly the ~870 cycles the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import TrackerConfig
from repro.core.bitmap import WORD_BITS, DirtyBitmap
from repro.core.lookup_table import LookupTable, TableStats
from repro.core.msr import ControlBits, Msr, MsrBank
from repro.core.policies import AllocationPolicy


@dataclass
class TrackerState:
    """Architectural state saved/restored across context switches."""

    msrs: MsrBank
    table_entries: list[tuple[int, int]]
    min_dirty_address: int


class ProsperTracker:
    """Hardware dirty tracker for one logical CPU."""

    #: Cycles of bandwidth interference one tracker memory op imposes on the
    #: demand stream.  Tracker traffic is off the critical path; this models
    #: its residual footprint in the memory hierarchy.
    INTERFERENCE_CYCLES_PER_OP = 1

    #: Cycles to save or load the tracker MSR/table state on a context
    #: switch (four MSR writes plus the 16-entry table contents), before
    #: flush-drain waiting.  Calibrated so the measured save+restore
    #: overhead lands near the paper's ~870 cycles.
    STATE_SWAP_CYCLES = 400

    #: Worst-case tracker memory ops for recording one granule: a capacity
    #: eviction (load + store), a Load-and-Update allocation load, and an
    #: HWM write-out (load + store).
    MAX_OPS_PER_GRANULE = 5

    def __init__(
        self,
        config: TrackerConfig,
        policy: AllocationPolicy = AllocationPolicy.ACCUMULATE_AND_APPLY,
        seed: int = 0xC0FFEE,
    ) -> None:
        self.config = config
        self.policy = policy
        self.msrs = MsrBank(granularity=config.granularity_bytes)
        self.table = LookupTable(config, policy, seed)
        self.bitmap: DirtyBitmap | None = None
        self._min_dirty_address: int | None = None
        #: Memory ops issued in the current interval (for stats/energy).
        self.interval_memory_ops = 0
        #: Lookup-table accesses (reads+writes) for the energy model.
        self.table_reads = 0
        self.table_writes = 0

    # ------------------------------------------------------------------ #
    # OS-facing configuration (via MSRs)
    # ------------------------------------------------------------------ #

    def configure(self, bitmap: DirtyBitmap) -> None:
        """Program the tracker for a stack region described by *bitmap*.

        In hardware this is a series of WRMSRs; the bitmap object carries
        the stack range, granularity, and bitmap base address together.
        """
        self.msrs.write(Msr.STACK_START, bitmap.region.start)
        self.msrs.write(Msr.STACK_END, bitmap.region.end)
        self.msrs.write(Msr.GRANULARITY, bitmap.granularity)
        self.msrs.write(Msr.BITMAP_BASE, bitmap.base_address)
        self.msrs.write(Msr.CONTROL, int(ControlBits.ENABLE))
        self.bitmap = bitmap
        self._min_dirty_address = None
        self.interval_memory_ops = 0

    def disable(self) -> None:
        """Disarm tracking (stack no longer persistent, or tracker handed off)."""
        self.msrs.write(Msr.CONTROL, 0)

    # ------------------------------------------------------------------ #
    # Demand-store path
    # ------------------------------------------------------------------ #

    def observe_store(self, address: int, size: int = 8) -> int:
        """Inspect one demand store; returns interference cycles.

        The comparator filters SOIs; non-stack stores cost nothing.  For an
        SOI, every covered granule is recorded via the lookup table, and any
        bitmap loads/stores the table issues are charged as interference.
        """
        if not self.msrs.enabled or self.bitmap is None:
            return 0
        if size <= 0:
            return 0
        msrs = self.msrs
        if not (msrs.stack_start <= address and address + size <= msrs.stack_end):
            # Partial overlaps with the stack range are clamped; entirely
            # outside means not an SOI.
            if address >= msrs.stack_end or address + size <= msrs.stack_start:
                return 0
            lo = max(address, msrs.stack_start)
            hi = min(address + size, msrs.stack_end)
            address, size = lo, hi - lo

        min_dirty = self._min_dirty_address
        if min_dirty is None or address < min_dirty:
            self._min_dirty_address = address
            msrs.min_dirty_address = address

        bitmap = self.bitmap
        region_start = bitmap.region.start
        granularity = bitmap.granularity
        if region_start <= address and address + size <= bitmap.region.end:
            first = (address - region_start) // granularity
            last = (address + size - 1 - region_start) // granularity
        else:
            # Out-of-region addresses keep the historical diagnostics.
            first = bitmap.granule_of(address)
            last = bitmap.granule_of(address + size - 1)
        if first == last:
            # Common case: the store dirties a single granule.
            self.table_reads += 1  # parallel search
            self.table_writes += 1  # value update / allocation
            memory_ops = self.table.record(
                first // WORD_BITS, first % WORD_BITS, bitmap
            )
        else:
            memory_ops = 0
            for granule in range(first, last + 1):
                self.table_reads += 1  # parallel search
                self.table_writes += 1  # value update / allocation
                memory_ops += self.table.record(
                    granule // WORD_BITS, granule % WORD_BITS, bitmap
                )
        self.interval_memory_ops += memory_ops
        return memory_ops * self.INTERFERENCE_CYCLES_PER_OP

    def observe_store_batch(self, addresses: np.ndarray, sizes: np.ndarray) -> int:
        """Inspect a run of demand stores at once; returns interference cycles.

        Semantically identical to calling :meth:`observe_store` for each
        (address, size) pair in order — same stats, same bitmap contents,
        same lowest-dirty-address, same total interference — but the SOI
        filtering, clamping and granule expansion happen as array
        operations, and the lookup-table updates go through
        :meth:`LookupTable.record_batch`.  Callers must pass addresses whose
        clamped extents lie inside the configured bitmap region (true
        whenever the MSRs were programmed by :meth:`configure`).
        """
        if not self.msrs.enabled or self.bitmap is None or len(addresses) == 0:
            return 0
        msrs = self.msrs
        lo = np.maximum(addresses, msrs.stack_start)
        hi = np.minimum(addresses + sizes, msrs.stack_end)
        valid = hi > lo
        if not valid.all():
            lo = lo[valid]
            hi = hi[valid]
            if len(lo) == 0:
                return 0

        batch_min = int(lo.min())
        min_dirty = self._min_dirty_address
        if min_dirty is None or batch_min < min_dirty:
            self._min_dirty_address = batch_min
            msrs.min_dirty_address = batch_min

        bitmap = self.bitmap
        region_start = bitmap.region.start
        granularity = bitmap.granularity
        first = (lo - region_start) // granularity
        last = (hi - 1 - region_start) // granularity
        counts = last - first + 1
        total = int(counts.sum())
        self.table_reads += total  # parallel search per granule
        self.table_writes += total  # value update / allocation per granule
        if total == len(first):
            granules = first
        else:
            # Expand [first, last] spans, preserving per-store order and the
            # ascending granule order within each store.
            group_starts = np.repeat(np.cumsum(counts) - counts, counts)
            granules = np.repeat(first, counts) + (
                np.arange(total, dtype=np.int64) - group_starts
            )
        memory_ops = self.table.record_batch(
            granules // WORD_BITS, granules % WORD_BITS, bitmap
        )
        self.interval_memory_ops += memory_ops
        return memory_ops * self.INTERFERENCE_CYCLES_PER_OP

    def store_cost_bound_array(self, addresses: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Per-store upper bound on the cycles :meth:`observe_store` returns,
        in every reachable tracker state."""
        granularity = self.config.granularity_bytes
        granules = (addresses % granularity + sizes - 1) // granularity + 1
        return granules * (self.MAX_OPS_PER_GRANULE * self.INTERFERENCE_CYCLES_PER_OP)

    # ------------------------------------------------------------------ #
    # Quiescence protocol (Section III-A two-step process)
    # ------------------------------------------------------------------ #

    def request_flush(self) -> None:
        """Step one: the OS sets the FLUSH control bit.

        The hardware begins evicting lookup-table entries; outstanding
        operation counters become non-zero until the drain completes.
        """
        if self.bitmap is None:
            return
        self.msrs.write(
            Msr.CONTROL, self.msrs.control | int(ControlBits.FLUSH)
        )
        # Model: the flush drains synchronously but the op count is exposed
        # through the STATUS MSR so the OS still performs its polling step.
        ops = self.table.flush(self.bitmap)
        self.interval_memory_ops += ops
        self.msrs.outstanding_ops = ops

    def poll_quiescent(self) -> bool:
        """Step two: the OS polls STATUS until all in-flight ops complete."""
        if not self.msrs.flush_requested:
            return True
        # All ops retired between the two steps in this model.
        self.msrs.outstanding_ops = 0
        self.msrs.clear_flush()
        return True

    @property
    def min_dirty_address(self) -> int | None:
        """Lowest stack address dirtied this interval (None: no SOIs yet)."""
        return self._min_dirty_address

    def begin_interval(self) -> None:
        """Reset per-interval tracking state (OS cleared the bitmap)."""
        self._min_dirty_address = None
        self.msrs.min_dirty_address = 0
        self.interval_memory_ops = 0

    # ------------------------------------------------------------------ #
    # Context-switch support (Section III-C)
    # ------------------------------------------------------------------ #

    def save_state(self) -> tuple[TrackerState, int]:
        """Flush + capture state for the outgoing context.

        Returns the saved state and the cycles the switch path spends
        (flush-induced memory ops plus the MSR/table save).
        """
        cycles = self.STATE_SWAP_CYCLES
        if self.bitmap is not None:
            self.request_flush()
            cycles += self.msrs.outstanding_ops * self.INTERFERENCE_CYCLES_PER_OP
            self.poll_quiescent()
        state = TrackerState(
            msrs=self.msrs.snapshot(),
            table_entries=self.table.entries_snapshot(),
            min_dirty_address=self._min_dirty_address or 0,
        )
        return state, cycles

    def restore_state(self, state: TrackerState, bitmap: DirtyBitmap | None) -> int:
        """Load the incoming context's tracker state; returns cycles spent."""
        self.msrs = state.msrs.snapshot()
        self.bitmap = bitmap
        self._min_dirty_address = state.min_dirty_address or None
        return self.STATE_SWAP_CYCLES

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    @property
    def stats(self) -> TableStats:
        return self.table.stats
