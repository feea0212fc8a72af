"""Write-protection-based page dirty tracking (soft-dirty style).

The second standard page-granularity technique of Section II-B: at the start
of every tracking interval the OS removes write permission from all mapped
stack PTEs; the *first* write to each page then traps into the kernel, which
records the page dirty and restores write access.  Subsequent writes to the
page proceed at full speed.

Compared to the Dirtybit approach this adds a page-fault cost per
first-touch page per interval — the overhead LDT (and the paper) call out —
while the checkpoint itself is identical page-granularity copying, so it is
inherited from :class:`~repro.persistence.dirtybit.DirtyBitPersistence`
(staging, crash points and recovery included).
"""

from __future__ import annotations

from repro.config import PAGE_BYTES
from repro.memory.address import span_pages
from repro.persistence.base import IntervalContext
from repro.persistence.dirtybit import DirtyBitPersistence

#: Round-trip cost of a write-protection fault: trap, kernel entry, record
#: dirty, restore permission, TLB invalidate, return.  Of the order of a
#: few thousand cycles on real hardware.
WP_FAULT_CYCLES = 2500
#: Cycles to re-arm write protection on one PTE at interval start.
PTE_PROTECT_CYCLES = 3


class WriteProtectPersistence(DirtyBitPersistence):
    """Stack checkpointing with write-protection fault dirty tracking."""

    name = "writeprotect"
    # Each first touch charges a fault, which the inherited batch hook
    # does not: stores are delivered one at a time.
    supports_batching = False

    def __init__(self, page_bytes: int = PAGE_BYTES) -> None:
        super().__init__(page_bytes)
        self.faults = 0

    def on_store(self, address: int, size: int, now: int) -> int:
        cost = 0
        for page in span_pages(address, size, self.page_bytes):
            self._mapped_pages.add(page)
            if page not in self._dirty_pages:
                # First store to a protected page this interval: fault.
                self._dirty_pages.add(page)
                self.faults += 1
                cost += WP_FAULT_CYCLES
        self.stats.inline_overhead_cycles += cost
        return cost

    def on_interval_start(self, ctx: IntervalContext) -> int:
        # Re-arm write protection across mapped stack pages.
        return len(self._mapped_pages) * PTE_PROTECT_CYCLES
