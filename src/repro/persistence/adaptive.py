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

from dataclasses import replace

import numpy as np

from repro.config import PAGE_BYTES, TrackerConfig
from repro.core.adaptive import (
    GRANULARITY_LADDER,
    PAGE_FALLBACK,
    GranularityController,
    IntervalProfile,
    WatermarkController,
)
from repro.core.tracker import ProsperTracker
from repro.memory.address import AddressRange
from repro.persistence.base import IntervalContext
from repro.persistence.dirtybit import DirtyBitPersistence
from repro.persistence.prosper import ProsperPersistence


class AdaptiveProsperPersistence(ProsperPersistence):
    """Prosper with OS-driven granularity (and optionally HWM) adaptation.

    Stores take Prosper's tracker path unchanged, batched; only the
    interval end differs.  In page fallback the tracker is disabled and
    charges nothing.
    """

    name = "prosper-adaptive"

    def __init__(
        self,
        tracker_config: TrackerConfig | None = None,
        granularity_controller: GranularityController | None = None,
        watermark_controller: WatermarkController | None = None,
        bitmap_base: int = 0x6000_0000,
        seed: int = 0xC0FFEE,
    ) -> None:
        tracker_config = tracker_config or TrackerConfig()
        self.controller = granularity_controller or GranularityController(
            initial=tracker_config.granularity_bytes
        )
        self.watermarks = watermark_controller
        super().__init__(
            self._programmed(tracker_config, self.controller.granularity),
            bitmap_base=bitmap_base,
            seed=seed,
        )
        #: Reads the interval's page footprint from the engine's store log
        #: for the density signal; it also checkpoints the stack while in
        #: page-fallback mode.
        self.pages = DirtyBitPersistence()
        self.granularity_history: list[int] = []

    @property
    def variant_name(self) -> str:
        return self.name

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def attach(self, engine, region: AddressRange) -> None:
        super().attach(engine, region)
        self.pages.attach(engine, region)
        self.granularity_history.append(self.controller.granularity)

    def _programmed(self, config: TrackerConfig, granularity: int) -> TrackerConfig:
        """*config* with the granularity MSR (and the controller's HWM)."""
        config = config.with_granularity(granularity)
        if self.watermarks is not None:
            config = replace(config, high_water_mark=self.watermarks.hwm)
        return config

    def _program_tracker(self, granularity: int) -> None:
        """Reprogram the tracker between intervals: disable it for the page
        fallback, or write its MSRs for *granularity* over a freshly sized
        bitmap area through Prosper's own wiring."""
        if granularity == PAGE_FALLBACK:
            self.tracker.disable()
        else:
            self.tracker_config = self._programmed(self.tracker_config, granularity)
            self.tracker = ProsperTracker(self.tracker_config, self.policy, self.seed)
            self._wire(self.staging.injector)
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

    def store_cost_bound_array(self, addresses: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        # The engine bounds a chunk's stores once, but an interval end in
        # the chunk may swap in another tracker: the ladder's finest
        # granularity dominates every one it can program.
        return ProsperTracker.cost_bound_at(GRANULARITY_LADDER[0], addresses, sizes)

    def on_interval_end(self, ctx: IntervalContext) -> int:
        if self.in_page_fallback:
            cycles, copied, live_pages = self.pages.checkpoint(ctx)
            runs = live_pages  # each live page is copied as one run
        else:
            live_pages = len(self.pages.dirty_pages(ctx)[1])
            result = self.checkpoint_engine.checkpoint(
                ctx.interval_index,
                active_low_hint=ctx.min_sp,
                final_sp=ctx.final_sp,
            )
            cycles, copied, runs = result.cycles, result.copied_bytes, result.runs

        self.stats.checkpoint_bytes.append(copied)

        # Adaptation step: feed the controllers, re-program on change.
        previous = self.controller.granularity
        profile = IntervalProfile(copied, runs, live_pages * PAGE_BYTES)
        next_granularity = self.controller.observe(profile)
        if self.watermarks is not None:
            self.watermarks.observe(
                self.tracker.interval_memory_ops, len(ctx.stores)
            )
        if next_granularity != previous:
            self._program_tracker(next_granularity)
        return cycles
