"""Adaptive Prosper: per-interval granularity (and HWM) adjustment.

Implements the policy loop the paper sketches as future work: at every
checkpoint the OS inspects the interval's dirty profile and re-programs the
tracker — finer granularity for sparse writers, coarser for dense ones, and
a full fall-back to page-granularity Dirtybit tracking when sub-page
metadata stops paying for itself (the Stream case in Figure 10).

Granularity changes are realized exactly the way the hardware allows:
between intervals the OS writes the granularity and bitmap-base MSRs and
hands the tracker a freshly-sized bitmap area.
"""

from __future__ import annotations

from repro.config import PAGE_BYTES, TrackerConfig
from repro.core.adaptive import (
    PAGE_FALLBACK,
    GranularityController,
    IntervalProfile,
    WatermarkController,
)
from repro.core.bitmap import DirtyBitmap
from repro.core.checkpoint import ProsperCheckpointEngine
from repro.core.tracker import ProsperTracker
from repro.memory.address import AddressRange
from repro.persistence.base import (
    Capabilities,
    IntervalContext,
    PersistenceMechanism,
)
from repro.persistence.dirtybit import DirtyBitPersistence


class AdaptiveProsperPersistence(PersistenceMechanism):
    """Prosper with OS-driven granularity (and optionally HWM) adaptation."""

    name = "prosper-adaptive"
    capabilities = Capabilities(
        achieves_process_persistence=True,
        works_without_compiler_support=True,
        stack_pointer_aware=True,
        allows_stack_in_dram=True,
    )
    region_in_nvm = False

    def __init__(
        self,
        tracker_config: TrackerConfig | None = None,
        granularity_controller: GranularityController | None = None,
        watermark_controller: WatermarkController | None = None,
        bitmap_base: int = 0x6000_0000,
        seed: int = 0xC0FFEE,
    ) -> None:
        super().__init__()
        self.tracker_config = tracker_config or TrackerConfig()
        self.controller = granularity_controller or GranularityController(
            initial=self.tracker_config.granularity_bytes
        )
        self.watermarks = watermark_controller
        self.bitmap_base = bitmap_base
        self.seed = seed
        self.tracker: ProsperTracker | None = None
        self.bitmap: DirtyBitmap | None = None
        self.checkpoint_engine: ProsperCheckpointEngine | None = None
        #: Per-interval page footprint, tracked for the density signal;
        #: it also checkpoints the stack while in page-fallback mode.
        self.pages = DirtyBitPersistence()
        self._stores_this_interval = 0
        self.granularity_history: list[int] = []

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def attach(self, engine, region: AddressRange) -> None:
        super().attach(engine, region)
        self.pages.attach(engine, region)
        self._program_tracker(self.controller.granularity)

    def _program_tracker(self, granularity: int) -> None:
        """(Re)program the tracker for *granularity* (MSR writes + new bitmap)."""
        assert self.region is not None
        if granularity == PAGE_FALLBACK:
            if self.tracker is not None:
                self.tracker.disable()
            self.granularity_history.append(PAGE_FALLBACK)
            return
        config = self.tracker_config.with_granularity(granularity)
        if self.watermarks is not None:
            from dataclasses import replace

            config = replace(config, high_water_mark=self.watermarks.hwm)
        self.tracker = ProsperTracker(config, seed=self.seed)
        self.bitmap = DirtyBitmap(self.region, granularity, self.bitmap_base)
        self.tracker.configure(self.bitmap)
        self.checkpoint_engine = ProsperCheckpointEngine(
            self.tracker,
            self.bitmap,
            self.hierarchy,
            fixed_scale=self.fixed_scale,
        )
        self.granularity_history.append(granularity)

    @property
    def in_page_fallback(self) -> bool:
        return self.controller.in_page_fallback

    @property
    def current_granularity(self) -> int:
        return self.controller.granularity

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #

    def on_store(self, address: int, size: int, now: int) -> int:
        self._stores_this_interval += 1
        self.pages.mark_dirty(address, size)
        if self.in_page_fallback or self.tracker is None:
            return 0
        cost = self.tracker.observe_store(address, size)
        if cost:
            self.stats.inline_overhead_cycles += cost
        return cost

    def on_interval_end(self, ctx: IntervalContext) -> int:
        self.stats.intervals += 1
        if self.in_page_fallback:
            cycles, copied, live_pages = self.pages.checkpoint(ctx)
            runs = live_pages  # each live page is copied as one run
        else:
            live_pages = len(self.pages.live_pages(ctx.final_sp))
            self.pages.clear_dirty()
            assert self.checkpoint_engine is not None
            result = self.checkpoint_engine.checkpoint(
                ctx.interval_index,
                active_low_hint=ctx.min_sp,
                final_sp=ctx.final_sp,
            )
            cycles, copied, runs = result.cycles, result.copied_bytes, result.runs

        self.stats.checkpoint_bytes.append(copied)
        self.stats.checkpoint_cycles.append(cycles)

        # Adaptation step: feed the controllers, re-program on change.
        previous = self.controller.granularity
        profile = IntervalProfile(copied, runs, live_pages * PAGE_BYTES)
        next_granularity = self.controller.observe(profile)
        if self.watermarks is not None and self.tracker is not None:
            self.watermarks.observe(
                self.tracker.interval_memory_ops, self._stores_this_interval
            )
        if next_granularity != previous:
            self._program_tracker(next_granularity)

        self._stores_this_interval = 0
        return cycles

    def persisted_state(self) -> dict:
        return {
            "kind": "prosper-adaptive-checkpoint",
            "granularity_history": list(self.granularity_history),
        }
