"""Prosper exposed through the common persistence-mechanism interface.

This adapter wires the hardware tracker (:mod:`repro.core.tracker`), the
DRAM dirty bitmap (:mod:`repro.core.bitmap`), and the OS checkpoint engine
(:mod:`repro.core.checkpoint`) into the hook interface the execution engine
drives — letting Prosper be swept against the baselines and composed with a
heap mechanism (Figure 9).
"""

from __future__ import annotations

import numpy as np

from repro.config import TrackerConfig
from repro.core.bitmap import DirtyBitmap
from repro.core.checkpoint import ProsperCheckpointEngine
from repro.core.policies import AllocationPolicy
from repro.core.tracker import ProsperTracker
from repro.memory.address import AddressRange
from repro.persistence.base import (
    Capabilities,
    IntervalContext,
    PersistenceMechanism,
)


class TrackerStores(PersistenceMechanism):
    """Stores through a Prosper tracker: the one store path of Prosper,
    adaptive Prosper and the kernel's per-core trackers.  Its cost
    depends only on store order, never on the cycle count, so the stores
    batch; loads and a disabled tracker cost nothing."""

    name = "prosper-tracker"

    def __init__(self, tracker: ProsperTracker) -> None:
        super().__init__()
        self.tracker = tracker

    def on_store(self, address: int, size: int, now: int) -> int:
        return self.tracker.observe_store(address, size)

    def on_store_batch(self, addresses: np.ndarray, sizes: np.ndarray, now: int) -> int:
        return self.tracker.observe_store_batch(addresses, sizes)

    def store_cost_bound_array(self, addresses: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        return self.tracker.store_cost_bound_array(addresses, sizes)


class ProsperPersistence(TrackerStores):
    """Sub-page byte-granularity checkpointing via the Prosper tracker."""

    name = "prosper"
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
        policy: AllocationPolicy = AllocationPolicy.ACCUMULATE_AND_APPLY,
        bitmap_base: int = 0x6000_0000,
        seed: int = 0xC0FFEE,
        content_reader=None,
        content_writer=None,
    ) -> None:
        tracker_config = tracker_config or TrackerConfig()
        super().__init__(ProsperTracker(tracker_config, policy, seed))
        self.tracker_config = tracker_config
        self.policy = policy
        self.seed = seed
        self.bitmap_base = bitmap_base
        self.bitmap: DirtyBitmap | None = None
        self.checkpoint_engine: ProsperCheckpointEngine | None = None
        #: Optional actual-contents hooks (see repro.core.checkpoint):
        #: when set, staged runs carry real checksummed payloads and
        #: commits apply them to a persistent image — the crash-schedule
        #: fuzzer's golden-image substrate.  None keeps the timing-only
        #: model every experiment uses.
        self.content_reader = content_reader
        self.content_writer = content_writer

    @property
    def granularity(self) -> int:
        return self.tracker_config.granularity_bytes

    @property
    def variant_name(self) -> str:
        return f"prosper-{self.granularity}B"

    def attach(self, engine, region: AddressRange) -> None:
        super().attach(engine, region)
        self._wire(getattr(engine, "fault_injector", None))

    def _wire(self, injector) -> None:
        """Program the tracker over a fresh bitmap; build the checkpoint
        engine over both."""
        self.bitmap = DirtyBitmap(
            self.region, self.tracker_config.granularity_bytes, self.bitmap_base
        )
        self.tracker.configure(self.bitmap)
        self.checkpoint_engine = ProsperCheckpointEngine(
            self.tracker, self.bitmap, self.hierarchy,
            fixed_scale=self.fixed_scale,
            injector=injector,
            content_reader=self.content_reader,
            content_writer=self.content_writer,
        )

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #

    def on_interval_end(self, ctx: IntervalContext) -> int:
        assert self.checkpoint_engine is not None, "not attached"
        result = self.checkpoint_engine.checkpoint(
            ctx.interval_index,
            active_low_hint=ctx.min_sp,
            final_sp=ctx.final_sp,
        )
        self.stats.checkpoint_bytes.append(result.copied_bytes)
        return result.cycles

    @property
    def staging(self):
        """The checkpoint engine's staging buffer (None until attached)."""
        engine = self.checkpoint_engine
        return engine.staging if engine is not None else None
