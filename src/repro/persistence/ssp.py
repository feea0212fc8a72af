"""SSP — sub-page shadow paging at cache-line granularity (Section IV-A).

SSP keeps the protected region in NVM and maintains *two* physical pages for
each virtual page, distributing modified cache lines across them via
hardware-assisted cache-line remapping.  Dirty-line bitmaps live in an
extended TLB.  Two activities cost time:

* **interval commit** — at the end of each consistency interval the dirty
  lines are written back with ``clwb``, the updated per-page bitmaps are
  sent to the SSP cache, and the commit bitmap in NVM is updated;
* **page consolidation** — a background OS thread, invoked every 10 µs /
  100 µs / 1 ms (the paper sweeps this since the original leaves it
  unspecified), merges the two physical pages of *inactive* virtual pages
  (pages not written since the previous pass) by copying their
  unconsolidated lines.  The merging traffic interferes with application
  execution — the effect that makes SSP-10µs the costliest setting in
  Figure 8.

The consolidation thread is modeled inside the store path: whenever
application time crosses the next invocation deadline, the pass runs and its
cycles are charged as interference.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.config import CACHE_LINE_BYTES, PAGE_BYTES
from repro.memory.address import page_index, span_lines
from repro.persistence.base import (
    Capabilities,
    IntervalContext,
    PersistenceMechanism,
)

#: Kernel cost of one consolidation-thread invocation before any merging
#: (wakeup, metadata scan).
CONSOLIDATION_WAKEUP_CYCLES = 2500
#: Metadata-scan cost per tracked virtual page per invocation (PTE plus
#: SSP per-page metadata).  At a 10 us invocation interval this scan is the
#: dominant consolidation cost and the reason SSP-10us trails SSP-1ms in
#: Figure 8.
SCAN_CYCLES_PER_PAGE = 40
#: Cycles to push one page's updated bitmap into the SSP cache at commit.
BITMAP_UPDATE_CYCLES = 20
#: Bytes of commit-bitmap written to NVM per dirty page at interval end.
COMMIT_BITMAP_BYTES = 8

LINES_PER_PAGE = PAGE_BYTES // CACHE_LINE_BYTES


class _PageState:
    """Shadow-paging state of one virtual page."""

    __slots__ = ("dirty_lines", "unconsolidated_lines", "last_write_now")

    def __init__(self) -> None:
        #: Lines modified in the current consistency interval.
        self.dirty_lines: set[int] = set()
        #: Lines split across the two physical copies, awaiting merge.
        self.unconsolidated_lines: set[int] = set()
        self.last_write_now = 0


class SspPersistence(PersistenceMechanism):
    """Sub-page shadow paging with a periodic consolidation thread."""

    name = "ssp"
    capabilities = Capabilities(
        achieves_process_persistence=False,
        works_without_compiler_support=True,
        stack_pointer_aware=False,
        allows_stack_in_dram=False,
    )
    region_in_nvm = True
    # No on_store_batch: the first access past the next consolidation
    # deadline runs the pass and charges it, so batched delivery would
    # change timing.  Earlier accesses charge nothing, and
    # ``hook_deadline`` says so.

    def __init__(self, consolidation_interval_us: float = 10.0) -> None:
        super().__init__()
        if consolidation_interval_us <= 0:
            raise ValueError("consolidation interval must be positive")
        self.consolidation_interval_us = consolidation_interval_us
        self._consolidation_cycles = 0  # set at attach from engine freq
        self._next_consolidation = 0
        self._pages: dict[int, _PageState] = {}
        #: The pages with unconsolidated lines, least recently written
        #: first: a consolidation pass merges a prefix of this queue.
        self._merge_queue: OrderedDict[int, _PageState] = OrderedDict()
        self.consolidation_invocations = 0
        self.consolidated_lines_total = 0

    @property
    def variant_name(self) -> str:
        iv = self.consolidation_interval_us
        label = f"{iv:g}us" if iv < 1000 else f"{iv / 1000:g}ms"
        return f"ssp-{label}"

    def attach(self, engine, region) -> None:
        super().attach(engine, region)
        # The invocation period follows the engine's (possibly compressed)
        # clock: under a fixed_cost_scale of s, s*N cycles represent N real
        # cycles, so the thread must fire every s*period to keep the same
        # invocations-per-interval ratio as real hardware.
        self._consolidation_cycles = max(
            1,
            round(
                self.consolidation_interval_us
                * engine.config.freq_hz
                / 1e6
                * engine.fixed_cost_scale
            ),
        )
        self._next_consolidation = self._consolidation_cycles

    @property
    def hook_deadline(self) -> int:
        """A hook before the next consolidation deadline charges nothing."""
        return self._next_consolidation

    # ------------------------------------------------------------------ #
    # Store path + background thread
    # ------------------------------------------------------------------ #

    def on_store(self, address: int, size: int, now: int) -> int:
        page = page_index(address)
        state = self._pages.get(page)
        if state is None:
            state = self._pages[page] = _PageState()
        unmerged = state.unconsolidated_lines
        queued = bool(unmerged)
        for line in span_lines(address, size):
            state.dirty_lines.add(line)
            unmerged.add(line)
        state.last_write_now = now
        # ``now`` never decreases: the queue stays ordered by last write.
        if queued:
            self._merge_queue.move_to_end(page)
        elif unmerged:
            self._merge_queue[page] = state
        # The line remap itself is hardware and free; the visible cost here
        # is any consolidation pass whose deadline we have crossed.
        return self._run_due_consolidations(now)

    def on_load(self, address: int, size: int, now: int) -> int:
        return self._run_due_consolidations(now)

    def _run_due_consolidations(self, now: int) -> int:
        if now < self._next_consolidation:
            return 0
        # One pass per crossed deadline set: a consolidation thread whose
        # work exceeds its period simply runs back-to-back — missed
        # deadlines are skipped, never replayed.
        cost = self._consolidate(now)
        self._next_consolidation = max(
            self._next_consolidation + self._consolidation_cycles,
            now + cost,
        )
        return cost

    def _consolidate(self, invocation_now: int) -> int:
        """One pass of the OS consolidation thread."""
        self.consolidation_invocations += 1
        scale = self.fixed_scale
        cycles = round(CONSOLIDATION_WAKEUP_CYCLES * scale)
        cycles += round(len(self._pages) * SCAN_CYCLES_PER_PAGE * scale)
        inactive_before = invocation_now - self._consolidation_cycles
        # Only pages not written within the last period merge (merging an
        # active page would just split it again), and those are a prefix
        # of the queue.
        queue = self._merge_queue
        merged = pages = 0
        for state in queue.values():
            if state.last_write_now >= inactive_before:
                break
            merged += len(state.unconsolidated_lines)
            state.unconsolidated_lines.clear()
            pages += 1
        for _ in range(pages):
            queue.popitem(last=False)
        merged_bytes = merged * CACHE_LINE_BYTES
        self.consolidated_lines_total += merged
        if merged_bytes:
            hierarchy = self.hierarchy
            cycles += hierarchy.reliable_copy_to_nvm(
                hierarchy.nvm, merged_bytes, scale
            ).cycles
        return cycles

    # ------------------------------------------------------------------ #
    # Interval commit
    # ------------------------------------------------------------------ #

    def on_interval_end(self, ctx: IntervalContext) -> int:
        cycles = 0
        committed_bytes = 0
        for state in self._pages.values():
            if not state.dirty_lines:
                continue
            # clwb each modified line of the page; time advances through
            # the burst so write-buffer back-pressure is seen correctly.
            for line in state.dirty_lines:
                cycles += self.hierarchy.clwb(
                    line * CACHE_LINE_BYTES, CACHE_LINE_BYTES, now=ctx.now + cycles
                )
                committed_bytes += CACHE_LINE_BYTES
            # Push the extended-TLB bitmap to the SSP cache and update the
            # commit bitmap in NVM.
            cycles += BITMAP_UPDATE_CYCLES
            cycles += self.hierarchy.nvm.write(COMMIT_BITMAP_BYTES, ctx.now + cycles)
            state.dirty_lines = set()
        cycles += self.hierarchy.persist_barrier()
        self.stats.checkpoint_bytes.append(committed_bytes)
        return cycles

    @property
    def tracked_pages(self) -> int:
        return len(self._pages)
