"""Virtual memory: page tables with dirty / write-protect bits.

Models the PTE bits of Section II-B: PTEs carry *present*, *writable*,
*dirty* and *accessed* bits; the hardware walker sets the dirty bit on a
write, while write protection clears the writable bit and takes a fault
on the first store.  The stack region grows on demand — a touch below the
mapped low-water mark maps new pages, the way Linux (and GemOS) service
stack growth.  The two page-granularity baselines
(:mod:`repro.persistence.dirtybit`, :mod:`repro.persistence.writeprotect`)
do not walk a :class:`PageTable`: they keep their dirty pages as a set and
charge PTE walk, fault and re-arm cycles per page.

Also hosts the per-thread stack-permission scheme Prosper uses for
inter-thread stack writes (Section III-C): each thread's view maps its own
stack writable and other threads' stacks read-only, so a cross-thread write
faults into the OS, which records the dirty bits on the victim thread's
bitmap before allowing the write.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import PAGE_BYTES
from repro.memory.address import AddressRange, page_index, span_pages


@dataclass
class PageTableEntry:
    """One PTE's software-visible state."""

    present: bool = True
    writable: bool = True
    dirty: bool = False
    accessed: bool = False


@dataclass
class FaultRecord:
    """One page fault taken by the process (for statistics/tests)."""

    address: int
    kind: str  # "demand-map", "write-protect", "cross-thread"


class PageTable:
    """Sparse page table for one address space (or one thread's view)."""

    def __init__(self, page_bytes: int = PAGE_BYTES) -> None:
        self.page_bytes = page_bytes
        self.entries: dict[int, PageTableEntry] = {}
        self.faults: list[FaultRecord] = []

    # ------------------------------------------------------------------ #
    # Mapping
    # ------------------------------------------------------------------ #

    def map_range(self, rng: AddressRange, writable: bool = True) -> int:
        """Map every page overlapping *rng*; returns pages newly mapped."""
        added = 0
        for page in rng.pages(self.page_bytes):
            if page not in self.entries:
                self.entries[page] = PageTableEntry(writable=writable)
                added += 1
        return added

    def unmap_range(self, rng: AddressRange) -> int:
        """Unmap every fully-covered page; returns pages removed."""
        removed = 0
        for page in rng.pages(self.page_bytes):
            if self.entries.pop(page, None) is not None:
                removed += 1
        return removed

    def is_mapped(self, address: int) -> bool:
        return page_index(address, self.page_bytes) in self.entries

    @property
    def mapped_pages(self) -> int:
        return len(self.entries)

    # ------------------------------------------------------------------ #
    # Access path (what the hardware walker + fault handler do)
    # ------------------------------------------------------------------ #

    def touch(
        self,
        address: int,
        size: int,
        is_write: bool,
        stack_region: AddressRange | None = None,
    ) -> int:
        """Apply one access to the page table; returns faults taken.

        Unmapped pages inside *stack_region* are demand-mapped (on-demand
        stack growth); unmapped pages elsewhere raise.  A write to a
        write-protected page records a fault and sets the page writable and
        dirty — the software dirty-tracking path.
        """
        faults = 0
        for page in span_pages(address, size, self.page_bytes):
            entry = self.entries.get(page)
            if entry is None:
                base = page * self.page_bytes
                if stack_region is not None and stack_region.contains(base):
                    entry = self.entries[page] = PageTableEntry()
                    self.faults.append(FaultRecord(address, "demand-map"))
                    faults += 1
                else:
                    raise MemoryError(
                        f"access to unmapped page at {address:#x}"
                    )
            entry.accessed = True
            if is_write:
                if not entry.writable:
                    self.faults.append(FaultRecord(address, "write-protect"))
                    faults += 1
                    entry.writable = True
                entry.dirty = True
        return faults

    # ------------------------------------------------------------------ #
    # Dirty-tracking services (Section II-B baselines)
    # ------------------------------------------------------------------ #

    def collect_and_clear_dirty(self, rng: AddressRange | None = None) -> list[int]:
        """Return dirty page indices (optionally limited to *rng*), clearing them.

        This is the OS walk at the end of a Dirtybit tracking interval.
        """
        pages = (
            rng.pages(self.page_bytes) if rng is not None else list(self.entries)
        )
        dirty: list[int] = []
        for page in pages:
            entry = self.entries.get(page)
            if entry is not None and entry.dirty:
                dirty.append(page)
                entry.dirty = False
        return dirty

    def write_protect(self, rng: AddressRange | None = None) -> int:
        """Remove write permission (soft-dirty arm); returns PTEs changed."""
        pages = (
            rng.pages(self.page_bytes) if rng is not None else list(self.entries)
        )
        changed = 0
        for page in pages:
            entry = self.entries.get(page)
            if entry is not None and entry.writable:
                entry.writable = False
                changed += 1
        return changed

    def clone_view(self, read_only: AddressRange) -> "PageTable":
        """Per-thread view with *read_only* mapped without write permission.

        Used for the inter-thread stack-write scheme: a thread's view maps
        every other thread's stack read-only.
        """
        view = PageTable(self.page_bytes)
        ro_pages = set(read_only.pages(self.page_bytes))
        for page, entry in self.entries.items():
            view.entries[page] = PageTableEntry(
                present=entry.present,
                writable=entry.writable and page not in ro_pages,
                dirty=entry.dirty,
                accessed=entry.accessed,
            )
        return view
