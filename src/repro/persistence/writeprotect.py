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
(staging, crash points and recovery included).  The checkpoint reads the
dirty pages from the engine's interval store log; the store hook keeps
only what the faults need: the pages first touched this interval and the
pages ever mapped, whose PTEs each interval start re-protects.
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

    def __init__(self, page_bytes: int = PAGE_BYTES) -> None:
        super().__init__(page_bytes)
        self.faults = 0
        #: Pages written since write protection was last re-armed.
        self._touched: set[int] = set()
        #: Pages ever mapped (their PTEs exist and must be re-protected).
        self._mapped: set[int] = set()

    def on_store(self, address: int, size: int, now: int) -> int:
        cost = 0
        for page in span_pages(address, size, self.page_bytes):
            self._mapped.add(page)
            if page not in self._touched:
                # First store to a protected page this interval: fault.
                self._touched.add(page)
                self.faults += 1
                cost += WP_FAULT_CYCLES
        return cost

    def on_interval_start(self, ctx: IntervalContext) -> int:
        # Re-arm write protection across mapped stack pages.
        self._touched.clear()
        return len(self._mapped) * PTE_PROTECT_CYCLES
