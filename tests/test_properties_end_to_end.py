"""Property-based end-to-end invariants of the checkpoint pipeline.

These generate random op streams and check the system-level guarantees the
paper relies on:

* the Prosper tracker + OS checkpoint path captures *exactly* the granules
  the application dirtied, for any store pattern and any granularity;
* Prosper's checkpoint is never larger than Dirtybit's for the same trace;
* crash + recovery always lands on a committed checkpoint whose register
  state matches what was captured.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import PAGE_BYTES, TrackerConfig, setup_i
from repro.core.bitmap import DirtyBitmap
from repro.core.checkpoint import ProsperCheckpointEngine
from repro.core.tracker import ProsperTracker
from repro.cpu.engine import ExecutionEngine
from repro.cpu.ops import Op, OpKind
from repro.memory.address import AddressRange, span_granules, span_pages
from repro.memory.hierarchy import MemoryHierarchy
from repro.persistence.dirtybit import DirtyBitPersistence
from repro.persistence.prosper import ProsperPersistence

REGION = AddressRange(0x7000_0000, 0x7000_0000 + 128 * 1024)

store_lists = st.lists(
    st.tuples(st.integers(0, 128 * 1024 - 64), st.sampled_from([1, 4, 8, 16, 64])),
    min_size=1,
    max_size=150,
)


class TestTrackerExactness:
    @settings(max_examples=40, deadline=None)
    @given(store_lists, st.sampled_from([8, 16, 64]))
    def test_checkpoint_copies_exactly_dirtied_granules(self, stores, granularity):
        tracker = ProsperTracker(
            TrackerConfig(granularity_bytes=granularity, lookup_table_entries=4)
        )
        bitmap = DirtyBitmap(REGION, granularity)
        tracker.configure(bitmap)
        engine = ProsperCheckpointEngine(
            tracker, bitmap, MemoryHierarchy(setup_i())
        )
        expected = set()
        for offset, size in stores:
            tracker.observe_store(REGION.start + offset, size)
            expected.update(span_granules(offset, size, granularity))
        result = engine.checkpoint(0)
        assert result.copied_bytes == len(expected) * granularity

    @settings(max_examples=25, deadline=None)
    @given(store_lists)
    def test_prosper_never_copies_more_than_dirtybit(self, stores):
        # One big live frame so the SP-aware copy keeps every write.
        ops = [Op(OpKind.CALL, size=REGION.size)] + [
            Op(OpKind.WRITE, REGION.start + off, size) for off, size in stores
        ]

        prosper = ProsperPersistence()
        ExecutionEngine(stack_range=REGION, mechanism=prosper).run(
            list(ops), interval_ops=len(ops)
        )
        dirtybit = DirtyBitPersistence()
        ExecutionEngine(stack_range=REGION, mechanism=dirtybit).run(
            list(ops), interval_ops=len(ops)
        )
        assert (
            prosper.stats.total_checkpoint_bytes
            <= dirtybit.stats.total_checkpoint_bytes
        )
        # Dirtybit's copy equals the page footprint exactly.
        pages = set()
        for off, size in stores:
            pages.update(span_pages(REGION.start + off, size))
        assert dirtybit.stats.total_checkpoint_bytes == len(pages) * PAGE_BYTES


class TestRecoveryInvariant:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(0, 64 * 1024 - 8), min_size=1, max_size=30),
        st.booleans(),
    )
    def test_recovery_always_lands_on_captured_state(self, offsets, crash_mid_commit):
        from repro.core.tracker import ProsperTracker as Tracker
        from repro.faults.injector import (
            COMMIT_FLAG_WRITE,
            CrashInjected,
            FaultInjector,
        )
        from repro.kernel.checkpoint_mgr import CheckpointManager
        from repro.kernel.process import Process
        
        proc = Process()
        thread = proc.spawn_thread(stack_bytes=128 * 1024, persistent=True)
        tracker = Tracker(proc.tracker_config)
        tracker.configure(thread.bitmap)
        injector = FaultInjector()
        mgr = CheckpointManager(
            proc, MemoryHierarchy(setup_i()), tracker, injector=injector
        )

        thread.registers.stack_pointer = thread.stack.start  # whole stack live
        for i, off in enumerate(offsets):
            tracker.observe_store(thread.stack.start + off, 8)
            thread.registers.op_index = i + 1
        if crash_mid_commit:
            # Fully staged; power fails before the commit flag flips.
            injector.arm(COMMIT_FLAG_WRITE)
            with pytest.raises(CrashInjected):
                mgr.checkpoint_process()
        else:
            mgr.checkpoint_process()

        mgr.crash()
        assert thread.registers.op_index == 0  # volatile state gone
        report = mgr.recover()
        # Fully-staged checkpoints roll forward; either way we recover.
        assert report.recovered
        assert thread.registers.op_index == len(offsets)


class TestSpAwareCopy:
    @settings(max_examples=40, deadline=None)
    @given(
        store_lists,
        st.integers(0, 128 * 1024).map(lambda o: o // 8 * 8),
    )
    def test_copy_is_dirty_intersect_live_region(self, stores, sp_offset):
        """SP-aware checkpoints copy exactly the dirty granules at or above
        the final SP, and clear everything (no bits leak below it)."""
        granularity = 8
        tracker = ProsperTracker(TrackerConfig(lookup_table_entries=4))
        bitmap = DirtyBitmap(REGION, granularity)
        tracker.configure(bitmap)
        engine = ProsperCheckpointEngine(
            tracker, bitmap, MemoryHierarchy(setup_i())
        )
        final_sp = REGION.start + sp_offset
        dirty = set()
        for offset, size in stores:
            tracker.observe_store(REGION.start + offset, size)
            dirty.update(span_granules(offset, size, granularity))
        live = {
            g for g in dirty
            if REGION.start + (g + 1) * granularity > final_sp
        }
        # Conservative clipping: a granule straddling final_sp counts from
        # max(run.start, final_sp), so compute expected bytes per granule.
        expected = 0
        for g in sorted(live):
            lo = max(REGION.start + g * granularity, final_sp)
            hi = REGION.start + (g + 1) * granularity
            expected += hi - lo
        result = engine.checkpoint(
            0, active_low_hint=REGION.start, final_sp=final_sp
        )
        assert result.copied_bytes == expected
        # Every bit was cleared, dead or live.
        assert bitmap.dirty_granule_count() == 0
