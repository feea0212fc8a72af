"""Tests for repro.kernel.checkpoint_mgr: whole-process checkpoints,
crash, and recovery."""

from repro.config import setup_i
from repro.core.tracker import ProsperTracker
from repro.faults.injector import COMMIT_FLAG_WRITE, CrashInjected, FaultInjector
from repro.kernel.checkpoint_mgr import METADATA_BYTES, CheckpointManager
from repro.kernel.process import Process
from repro.memory.hierarchy import MemoryHierarchy

import pytest


def setup_process(persistent=True, threads=1, injector=None):
    proc = Process()
    for _ in range(threads):
        proc.spawn_thread(stack_bytes=1 << 20, persistent=persistent)
    hierarchy = MemoryHierarchy(setup_i())
    tracker = ProsperTracker(proc.tracker_config)
    mgr = CheckpointManager(proc, hierarchy, tracker, injector=injector)
    return proc, tracker, mgr


def dirty_thread(proc, tracker, tid=1, offset=8):
    """Dirty one live granule: SP sits one frame down, the write is above it
    (SP-aware checkpoints drop writes below the final SP)."""
    thread = proc.thread(tid)
    tracker.configure(thread.bitmap)
    thread.registers.stack_pointer = thread.stack.end - 4096
    tracker.observe_store(thread.registers.stack_pointer + offset, 8)
    thread.registers.op_index = 1234


class TestCheckpointManager:
    def test_checkpoint_captures_registers_and_memory(self):
        proc, tracker, mgr = setup_process()
        dirty_thread(proc, tracker)
        record, cycles = mgr.checkpoint_process()
        assert record.committed
        assert cycles > 0
        snap = record.threads[0]
        assert snap.registers.op_index == 1234
        assert snap.copied_bytes == 8
        assert record.total_bytes == METADATA_BYTES + 8

    def test_sequence_numbers_increment(self):
        proc, tracker, mgr = setup_process()
        dirty_thread(proc, tracker)
        r0, _ = mgr.checkpoint_process()
        r1, _ = mgr.checkpoint_process()
        assert (r0.sequence, r1.sequence) == (0, 1)
        assert mgr.last_committed is r1

    def test_incremental_second_checkpoint_smaller(self):
        proc, tracker, mgr = setup_process()
        dirty_thread(proc, tracker)
        first, _ = mgr.checkpoint_process()
        second, _ = mgr.checkpoint_process()  # nothing dirtied since
        assert second.threads[0].copied_bytes == 0
        assert first.threads[0].copied_bytes == 8

    def test_multi_threaded_checkpoint(self):
        proc, tracker, mgr = setup_process(threads=2)
        t1, t2 = proc.thread(1), proc.thread(2)
        tracker.configure(t1.bitmap)
        t1.registers.stack_pointer = t1.stack.end - 4096
        tracker.observe_store(t1.registers.stack_pointer + 8, 8)
        record, _ = mgr.checkpoint_process()
        assert len(record.threads) == 2

    def test_nonpersistent_thread_registers_only(self):
        proc, tracker, mgr = setup_process(persistent=False)
        record, _ = mgr.checkpoint_process()
        assert record.threads[0].copied_bytes == 0
        assert record.committed


class TestCrashRecovery:
    def test_crash_wipes_volatile_state(self):
        proc, tracker, mgr = setup_process()
        dirty_thread(proc, tracker)
        mgr.checkpoint_process()
        mgr.crash()
        t = proc.thread(1)
        assert t.registers.op_index == 0
        assert t.bitmap.dirty_granule_count() == 0

    def test_recover_restores_last_committed(self):
        proc, tracker, mgr = setup_process()
        dirty_thread(proc, tracker)
        mgr.checkpoint_process()
        mgr.crash()
        report = mgr.recover()
        assert report.recovered
        assert report.resumed_from_sequence == 0
        assert proc.thread(1).registers.op_index == 1234

    def test_recover_without_crash_raises(self):
        proc, _, mgr = setup_process()
        with pytest.raises(RuntimeError):
            mgr.recover()

    def test_crash_mid_commit_rolls_forward(self):
        injector = FaultInjector()
        proc, tracker, mgr = setup_process(injector=injector)
        dirty_thread(proc, tracker)
        mgr.checkpoint_process()  # sequence 0, committed
        tracker.configure(proc.thread(1).bitmap)
        tracker.observe_store(proc.thread(1).registers.stack_pointer + 256, 8)
        proc.thread(1).registers.op_index = 5678
        # Sequence 1 is fully staged; power fails before its flag flips.
        injector.arm(COMMIT_FLAG_WRITE, occurrence=1)
        with pytest.raises(CrashInjected):
            mgr.checkpoint_process()
        mgr.crash()
        report = mgr.recover()
        assert report.rolled_forward
        # The fully-staged checkpoint 1 was completed and wins.
        assert report.resumed_from_sequence == 1
        assert proc.thread(1).registers.op_index == 5678

    def test_crash_before_any_checkpoint(self):
        proc, _, mgr = setup_process()
        mgr.crash()
        report = mgr.recover()
        assert not report.recovered
        assert report.threads_restored == 0

    def test_double_crash_recover_cycle(self):
        proc, tracker, mgr = setup_process()
        dirty_thread(proc, tracker)
        mgr.checkpoint_process()
        mgr.crash()
        mgr.recover()
        # Run a bit more, checkpoint, crash again.
        tracker.configure(proc.thread(1).bitmap)
        tracker.observe_store(proc.thread(1).registers.stack_pointer + 512, 8)
        proc.thread(1).registers.op_index = 9999
        mgr.checkpoint_process()
        mgr.crash()
        report = mgr.recover()
        assert report.resumed_from_sequence == 1
        assert proc.thread(1).registers.op_index == 9999
