"""Page-granularity checkpointing via PTE dirty bits (the Dirtybit baseline).

Models LDT-style dirty tracking (Section II-B): the hardware page-table
walker sets the dirty bit in a PTE on the first write to its page in an
interval — effectively free for the application.  At the end of the interval
the OS walks the PTEs of the stack region, copies every dirty *page* to NVM,
and resets the dirty bits for the next interval.

The inefficiency the paper attacks is visible directly in this model: a
single 8-byte store dirties a whole 4 KiB page, so the checkpoint size is
amplified by up to 512x relative to byte-granularity tracking.

Setting a dirty bit costs the application nothing, so the mechanism
defines no store hook: at the interval end it derives the dirty pages,
exactly those whose PTE dirty bits the walker would have set, from the
engine's record of the interval's stores (``IntervalContext.stores``).

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
from repro.memory.address import page_index
from repro.persistence.base import (
    Capabilities,
    IntervalContext,
    PersistenceMechanism,
    StoreLog,
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

    def __init__(
        self,
        page_bytes: int = PAGE_BYTES,
        content_reader=None,
        content_writer=None,
    ) -> None:
        super().__init__()
        self.page_bytes = page_bytes
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

    def on_interval_end(self, ctx: IntervalContext) -> int:
        cycles, copied, _ = self.checkpoint(ctx)
        self.stats.checkpoint_bytes.append(copied)
        return cycles

    def dirty_pages(self, ctx: IntervalContext) -> tuple[np.ndarray, np.ndarray]:
        """(dirty, live): the pages the interval's stores touched and those
        at or above the final SP's page, each in ascending order.

        A store dirties every page it spans (none at size 0).  SP awareness
        at page granularity: pages wholly below the final SP hold only
        popped frames and are not live.
        """
        dirty = touched_pages(ctx.stores, self.page_bytes)
        final_page = page_index(ctx.final_sp, self.page_bytes)
        return dirty, dirty[dirty >= final_page]

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
        # the batch plus bandwidth streaming of the bytes.  Every dirty
        # bit is reset, live or not.
        dirty, live = self.dirty_pages(ctx)
        pb = self.page_bytes
        copied = len(live) * pb
        cycles += len(dirty) * PTE_CLEAR_CYCLES
        self.staging.stage(
            ctx.interval_index, (live * pb).tolist(), ((live + 1) * pb).tolist()
        )
        cycles += self.staging.finish_stage(copied, self.fixed_scale).cycles
        cycles += self.staging.commit()
        return cycles, copied, len(live)


def touched_pages(stores: StoreLog, page_bytes: int) -> np.ndarray:
    """The pages *stores* touch, ascending: every page a store spans, none
    for a store of size 0."""
    sizes = stores.sizes
    written = sizes > 0
    addresses = stores.addresses[written]
    first = addresses // page_bytes
    last = (addresses + sizes[written] - 1) // page_bytes
    multi = last > first
    if multi.any():
        # Rare multi-page stores: add each one's further pages.
        first = np.concatenate([first] + [
            np.arange(f + 1, l + 1)
            for f, l in zip(first[multi].tolist(), last[multi].tolist())
        ])
    return np.unique(first)
