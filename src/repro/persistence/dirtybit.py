"""Page-granularity checkpointing via PTE dirty bits (the Dirtybit baseline).

Models LDT-style dirty tracking (Section II-B): the hardware page-table
walker sets the dirty bit in a PTE on the first write to its page in an
interval — effectively free for the application.  At the end of the interval
the OS walks the PTEs of the stack region, copies every dirty *page* to NVM,
and resets the dirty bits for the next interval.

The inefficiency the paper attacks is visible directly in this model: a
single 8-byte store dirties a whole 4 KiB page, so the checkpoint size is
amplified by up to 512x relative to byte-granularity tracking.

Each live dirty page is staged and committed through the same
:class:`~repro.core.checkpoint.StagingBuffer` as Prosper's checkpoints
(persist-order labels ``pgckpt[k].*``), so one recovery rule covers
both, and copies them through its reliable-write path, so a torn media
write tears the staged tail exactly as it does for Prosper; this module
keeps only the PTE walk and its cycles.

:meth:`DirtyBitPersistence.checkpoint` is the one page checkpoint: the
write-protection baseline (:mod:`repro.persistence.writeprotect`)
inherits it and the adaptive mechanism's page fallback
(:mod:`repro.persistence.adaptive`) calls it.
"""

from __future__ import annotations

import numpy as np

from repro.config import PAGE_BYTES
from repro.core.checkpoint import StagingBuffer
from repro.memory.address import page_index, span_pages
from repro.persistence.base import (
    Capabilities,
    IntervalContext,
    PersistenceMechanism,
)

#: Cycles for the OS to examine one PTE during the dirty walk.
PTE_INSPECT_CYCLES = 4
#: Cycles to reset one dirty PTE (write + accounting).
PTE_CLEAR_CYCLES = 3
#: Fixed per-checkpoint cost: entering the walk, TLB maintenance for the
#: cleared dirty bits (LDT batches this; still not free).
CHECKPOINT_FIXED_CYCLES = 600


class DirtyBitPersistence(PersistenceMechanism):
    """Stack checkpointing with 4 KiB dirty-bit tracking."""

    name = "dirtybit"
    capabilities = Capabilities(
        achieves_process_persistence=True,
        works_without_compiler_support=True,
        stack_pointer_aware=True,
        allows_stack_in_dram=True,
    )
    region_in_nvm = False
    # PTE dirty bits are set by the page-table walker off the critical path;
    # on_store charges nothing and keeps no cycle-dependent state, so runs
    # of stores can be delivered in one batched set update.
    supports_batching = True

    def __init__(
        self,
        page_bytes: int = PAGE_BYTES,
        content_reader=None,
        content_writer=None,
    ) -> None:
        super().__init__()
        self.page_bytes = page_bytes
        self._dirty_pages: set[int] = set()
        #: Pages ever mapped (their PTEs exist and must be walked).
        self._mapped_pages: set[int] = set()
        #: Optional actual-contents hooks for the staging buffer (see
        #: repro.core.checkpoint.StagingBuffer); None keeps the
        #: timing-only model.
        self.content_reader = content_reader
        self.content_writer = content_writer
        self.staging: StagingBuffer | None = None

    def attach(self, engine, region) -> None:
        super().attach(engine, region)
        self.staging = StagingBuffer(
            engine.hierarchy,
            getattr(engine, "fault_injector", None),
            "pgckpt",
            self.content_reader,
            self.content_writer,
        )

    def on_store(self, address: int, size: int, now: int) -> int:
        for page in span_pages(address, size, self.page_bytes):
            self._dirty_pages.add(page)
            self._mapped_pages.add(page)
        # The PTW sets the dirty bit off the critical path.
        return 0

    def mark_dirty(self, address: int, size: int) -> None:
        """Set the dirty bits of the pages a store touches, for an owner
        that counts its own stores and never reads the mapped set."""
        self._dirty_pages.update(span_pages(address, size, self.page_bytes))

    def on_store_batch(self, addresses: np.ndarray, sizes: np.ndarray, now: int) -> int:
        if len(addresses) == 0:
            return 0
        pb = self.page_bytes
        positive = sizes > 0
        first = addresses[positive] // pb
        last = (addresses[positive] + sizes[positive] - 1) // pb
        if len(first) == 0:
            return 0
        if int((last - first).max()) == 0:
            touched = np.unique(first)
        else:
            # Rare multi-page stores: expand each [first, last] span.
            spans = [np.arange(f, l + 1) for f, l in zip(first.tolist(), last.tolist())]
            touched = np.unique(np.concatenate(spans))
        pages = touched.tolist()
        self._dirty_pages.update(pages)
        self._mapped_pages.update(pages)
        return 0

    def on_interval_end(self, ctx: IntervalContext) -> int:
        cycles, copied, _ = self.checkpoint(ctx)
        self.stats.checkpoint_bytes.append(copied)
        return cycles

    def live_pages(self, final_sp: int) -> list[int]:
        """Dirty pages at or above *final_sp*'s page, in no set order.

        SP awareness at page granularity: pages wholly below the final SP
        hold only popped frames and are dropped.
        """
        final_page = page_index(final_sp, self.page_bytes)
        return [p for p in self._dirty_pages if p >= final_page]

    def clear_dirty(self) -> None:
        """Reset the dirty bits for the next interval."""
        self._dirty_pages.clear()

    def checkpoint(self, ctx: IntervalContext) -> tuple[int, int, int]:
        """Walk the PTEs, stage and commit every live dirty page, and reset
        the dirty bits; returns (cycles, copied bytes, live pages)."""
        cycles = round(CHECKPOINT_FIXED_CYCLES * self.fixed_scale)

        # Walk PTEs for the stack VMA.  The OS can bound the walk to the
        # pages between the lowest active SP and the stack top (the region
        # that can possibly be mapped/dirty) — page-level SP awareness.
        low_page = page_index(min(ctx.min_sp, ctx.final_sp), self.page_bytes)
        top_page = page_index(ctx.region.end - 1, self.page_bytes)
        walked = max(0, top_page - low_page + 1)
        cycles += walked * PTE_INSPECT_CYCLES

        # Copy every live dirty page, pipelined: one device latency for
        # the batch plus bandwidth streaming of the bytes.
        live = sorted(self.live_pages(ctx.final_sp))
        copied = len(live) * self.page_bytes
        cycles += len(self._dirty_pages) * PTE_CLEAR_CYCLES
        pb = self.page_bytes
        self.staging.stage(
            ctx.interval_index, [p * pb for p in live], [(p + 1) * pb for p in live]
        )
        cycles += self.staging.finish_stage(copied, self.fixed_scale).cycles
        cycles += self.staging.commit()
        self.clear_dirty()
        return cycles, copied, len(live)

    def persisted_state(self) -> dict:
        return {
            "kind": "page-checkpoint",
            "intervals_committed": self.stats.intervals,
        }
