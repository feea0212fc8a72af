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


class ProsperPersistence(PersistenceMechanism):
    """Sub-page byte-granularity checkpointing via the Prosper tracker."""

    name = "prosper"
    capabilities = Capabilities(
        achieves_process_persistence=True,
        works_without_compiler_support=True,
        stack_pointer_aware=True,
        allows_stack_in_dram=True,
    )
    region_in_nvm = False
    # Tracker interference is a per-op constant times a memory-op count that
    # depends only on store order, never on the cycle counter, so deferred
    # batch delivery charges exactly the same cycles as per-op hooks.
    supports_batching = True

    def __init__(
        self,
        tracker_config: TrackerConfig | None = None,
        policy: AllocationPolicy = AllocationPolicy.ACCUMULATE_AND_APPLY,
        bitmap_base: int = 0x6000_0000,
        seed: int = 0xC0FFEE,
        content_reader=None,
        content_writer=None,
    ) -> None:
        super().__init__()
        self.tracker_config = tracker_config or TrackerConfig()
        self.policy = policy
        self.bitmap_base = bitmap_base
        self.tracker = ProsperTracker(self.tracker_config, policy, seed)
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
        self.bitmap = DirtyBitmap(
            region, self.tracker_config.granularity_bytes, self.bitmap_base
        )
        self.tracker.configure(self.bitmap)
        self.checkpoint_engine = ProsperCheckpointEngine(
            self.tracker, self.bitmap, engine.hierarchy,
            fixed_scale=engine.fixed_cost_scale,
            injector=getattr(engine, "fault_injector", None),
            content_reader=self.content_reader,
            content_writer=self.content_writer,
        )

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #

    def on_store(self, address: int, size: int, now: int) -> int:
        cost = self.tracker.observe_store(address, size)
        if cost:
            self.stats.inline_overhead_cycles += cost
        return cost

    def on_store_batch(self, addresses: np.ndarray, sizes: np.ndarray, now: int) -> int:
        cost = self.tracker.observe_store_batch(addresses, sizes)
        if cost:
            self.stats.inline_overhead_cycles += cost
        return cost

    def store_cost_bound_array(self, addresses: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        return self.tracker.store_cost_bound_array(addresses, sizes)

    def on_interval_end(self, ctx: IntervalContext) -> int:
        self.stats.intervals += 1
        assert self.checkpoint_engine is not None, "not attached"
        result = self.checkpoint_engine.checkpoint(
            ctx.interval_index,
            active_low_hint=ctx.min_sp,
            final_sp=ctx.final_sp,
        )
        self.stats.checkpoint_bytes.append(result.copied_bytes)
        self.stats.checkpoint_cycles.append(result.cycles)
        return result.cycles

    @property
    def staging(self):
        """The checkpoint engine's staging buffer (None until attached)."""
        engine = self.checkpoint_engine
        return engine.staging if engine is not None else None

    def persisted_state(self) -> dict:
        staging = self.staging
        committed = staging.last_committed_interval if staging is not None else None
        return {"kind": "prosper-checkpoint", "last_committed": committed}
