"""Tests for repro.core.checkpoint: the Prosper OS-side checkpoint engine
and the staging buffer it shares with the Dirtybit baseline."""

import pytest

from repro.config import TrackerConfig, setup_i
from repro.core.bitmap import DirtyBitmap
from repro.core.checkpoint import ProsperCheckpointEngine
from repro.core.tracker import ProsperTracker
from repro.cpu.engine import ExecutionEngine
from repro.faults.injector import (
    PERSIST_BARRIER,
    STAGE_COMPLETE,
    CrashInjected,
    FaultInjector,
)
from repro.faults.order import PersistOrderOracle, PersistPlan
from repro.kernel.checkpoint_mgr import CheckpointManager
from repro.kernel.process import Process
from repro.memory.address import AddressRange
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.image import ByteImage
from repro.persistence.base import IntervalContext, StoreLog
from repro.persistence.dirtybit import DirtyBitPersistence

REGION = AddressRange(0x7000_0000, 0x7001_0000)


def engine() -> tuple[ProsperCheckpointEngine, ProsperTracker, DirtyBitmap]:
    tracker = ProsperTracker(TrackerConfig())
    bitmap = DirtyBitmap(REGION, 8)
    tracker.configure(bitmap)
    hierarchy = MemoryHierarchy(setup_i())
    return ProsperCheckpointEngine(tracker, bitmap, hierarchy), tracker, bitmap


class TestCheckpoint:
    def test_empty_checkpoint(self):
        ck, _, _ = engine()
        result = ck.checkpoint(0)
        assert result.copied_bytes == 0
        assert result.runs == 0
        assert ck.staging.staged.committed
        assert ck.staging.last_committed_interval == 0

    def test_copies_exactly_dirty_bytes(self):
        ck, tracker, _ = engine()
        tracker.observe_store(REGION.start + 64, 8)
        tracker.observe_store(REGION.start + 72, 8)
        result = ck.checkpoint(0)
        assert result.copied_bytes == 16
        assert result.runs == 1  # contiguous granules coalesce

    def test_bitmap_cleared_after_checkpoint(self):
        ck, tracker, bitmap = engine()
        tracker.observe_store(REGION.start + 64, 8)
        ck.checkpoint(0)
        assert bitmap.dirty_granule_count() == 0
        # Next interval starts from a clean tracker.
        assert tracker.min_dirty_address is None

    def test_active_low_hint_bounds_inspection(self):
        ck, tracker, _ = engine()
        tracker.observe_store(REGION.end - 64, 8)
        near_top = ck.checkpoint(0, active_low_hint=REGION.end - 4096)
        ck2, tracker2, _ = engine()
        tracker2.observe_store(REGION.end - 64, 8)
        # Force a full walk by hinting the region base.
        full = ck2.checkpoint(0, active_low_hint=REGION.start)
        assert near_top.words_inspected < full.words_inspected
        assert near_top.copied_bytes == full.copied_bytes

    def test_sequential_intervals_accumulate_results(self):
        ck, tracker, _ = engine()
        for i in range(3):
            tracker.observe_store(REGION.start + i * 1024, 8)
            ck.checkpoint(i)
        assert [r.interval_index for r in ck.results] == [0, 1, 2]
        assert ck.staging.last_committed_interval == 2

    def test_checkpoint_time_grows_with_dirty_data(self):
        ck, tracker, _ = engine()
        tracker.observe_store(REGION.start, 8)
        small = ck.checkpoint(0)
        for i in range(512):
            tracker.observe_store(REGION.start + i * 8, 8)
        large = ck.checkpoint(1)
        assert large.cycles > small.cycles
        assert large.copied_bytes > small.copied_bytes


#: Two stores per interval, a page apart: two staged runs for Prosper and
#: two staged pages for Dirtybit.
STORE_ADDRESSES = (REGION.start + 64, REGION.start + 2 * 4096 + 64)


class _Owner:
    """One staging owner with content hooks: stores land in a DRAM image,
    commits apply staged payloads to a durable image, and a persist-order
    oracle sits on the NVM device."""

    prefix = ""

    def __init__(self) -> None:
        self.injector = FaultInjector()
        self.oracle = PersistOrderOracle()
        self.dram = ByteImage()
        self.durable = ByteImage()

    def read(self, run):
        return self.dram.words_in_range(AddressRange(run.start, run.end))

    def write(self, staged_run) -> None:
        self.durable.replace_range(
            AddressRange(staged_run.run.start, staged_run.run.end),
            staged_run.payload,
        )

    def dirty(self, interval: int) -> None:
        for address in STORE_ADDRESSES:
            self.store(address)
            self.dram.write(address, 100 + interval)

    def durable_intervals(self) -> set[int]:
        """The interval numbers whose values the durable image holds."""
        return {value - 100 for _, value in self.durable.iter_words()}


class _ProsperOwner(_Owner):
    prefix = "ckpt"

    def __init__(self) -> None:
        super().__init__()
        self.tracker = ProsperTracker(TrackerConfig())
        bitmap = DirtyBitmap(REGION, 8)
        self.tracker.configure(bitmap)
        hierarchy = MemoryHierarchy(setup_i())
        hierarchy.nvm.order_oracle = self.oracle
        self.engine = ProsperCheckpointEngine(
            self.tracker, bitmap, hierarchy, injector=self.injector,
            content_reader=self.read, content_writer=self.write,
        )
        self.buffer = self.engine.staging

    def store(self, address: int) -> None:
        self.tracker.observe_store(address, 8)

    def checkpoint(self, interval: int) -> None:
        self.engine.checkpoint(interval)


class _DirtybitOwner(_Owner):
    prefix = "pgckpt"

    def __init__(self) -> None:
        super().__init__()
        self.mechanism = DirtyBitPersistence(
            content_reader=self.read, content_writer=self.write
        )
        engine = ExecutionEngine(
            stack_range=REGION, mechanism=self.mechanism,
            fault_injector=self.injector,
        )
        engine.hierarchy.nvm.order_oracle = self.oracle
        self.buffer = self.mechanism.staging
        self.stores = StoreLog()

    def store(self, address: int) -> None:
        self.stores.append(address, 8)

    def checkpoint(self, interval: int) -> None:
        # The engine's store log, cleared only once the interval commits.
        self.mechanism.on_interval_end(IntervalContext(
            interval, 0, REGION.start, REGION.start, REGION, self.stores
        ))
        self.stores.clear()


def _crash_staging(owner: _Owner, interval: int) -> list[str]:
    """Dirty and checkpoint *interval*, losing power once it is fully
    staged (before the persist barrier); returns the pending labels."""
    owner.dirty(interval)
    owner.injector.arm(PERSIST_BARRIER, occurrence=interval)
    with pytest.raises(CrashInjected):
        owner.checkpoint(interval)
    owner.injector.disarm()
    return owner.oracle.pending_labels()


class TestCrashConsistency:
    """The staging protocol's recovery rule, on Prosper's engine.  The
    subclass below re-runs every case on Dirtybit."""

    owner_type = _ProsperOwner

    @pytest.fixture
    def owner(self) -> _Owner:
        return self.owner_type()

    def test_crash_before_commit_leaves_uncommitted(self, owner):
        pending = _crash_staging(owner, 0)
        p = owner.prefix
        assert pending == [
            f"{p}[0].descriptor", f"{p}[0].stage_run[0]", f"{p}[0].stage_run[1]",
        ]
        assert owner.buffer.last_committed_interval is None
        assert owner.buffer.staged is not None and not owner.buffer.staged.committed
        assert owner.durable_intervals() == set()

    def test_recover_staged_completes_commit(self, owner):
        _crash_staging(owner, 0)
        owner.oracle.apply_plan(PersistPlan())
        assert owner.buffer.recover() == 0
        assert owner.buffer.staged.committed
        assert owner.durable_intervals() == {0}

    def test_commit_marker_label(self, owner):
        owner.dirty(0)
        owner.checkpoint(0)
        assert owner.oracle.pending_labels() == [f"{owner.prefix}[0].commit"]

    def test_recover_without_staged_returns_last_committed(self, owner):
        assert owner.buffer.recover() is None  # nothing ever staged
        owner.dirty(0)
        owner.checkpoint(0)
        assert owner.buffer.recover() == 0
        owner.buffer.discard()
        assert owner.buffer.recover() == 0

    @pytest.mark.parametrize(
        "dropped, torn",
        [("descriptor", None), ("stage_run[1]", None), (None, "stage_run[1]")],
        ids=["lost-descriptor", "missing-run", "torn-run"],
    )
    def test_incomplete_staging_falls_back(self, owner, dropped, torn):
        owner.dirty(0)
        owner.checkpoint(0)
        pending = _crash_staging(owner, 1)
        label = f"{owner.prefix}[1].{dropped or torn}"
        assert label in pending
        if dropped:
            owner.oracle.apply_plan(PersistPlan(frozenset({label})))
        else:
            owner.oracle.apply_plan(PersistPlan(frozenset(), label))
        assert owner.buffer.recover() == 0
        assert owner.buffer.staged is None  # discarded
        assert owner.durable_intervals() == {0}

    def test_crash_then_next_checkpoint_still_consistent(self, owner):
        _crash_staging(owner, 0)
        owner.oracle.apply_plan(PersistPlan())
        owner.buffer.recover()
        # Note: after a crash-recovery, the OS restarts the interval.
        owner.dirty(1)
        owner.checkpoint(1)
        assert owner.buffer.staged.committed
        assert owner.buffer.last_committed_interval == 1
        assert owner.durable_intervals() == {1}


class TestDirtybitCrashConsistency(TestCrashConsistency):
    owner_type = _DirtybitOwner


class TestKernelStagingLabels:
    """The kernel manager's per-thread engines namespace their labels."""

    def _world(self):
        proc = Process()
        thread = proc.spawn_thread(stack_bytes=1 << 20, persistent=True)
        thread.registers.stack_pointer = thread.stack.end - 4096
        hierarchy = MemoryHierarchy(setup_i())
        oracle = PersistOrderOracle()
        hierarchy.nvm.order_oracle = oracle
        tracker = ProsperTracker(proc.tracker_config)
        tracker.configure(thread.bitmap)
        injector = FaultInjector()
        mgr = CheckpointManager(proc, hierarchy, tracker, injector=injector)
        tracker.observe_store(thread.registers.stack_pointer + 64, 8)
        return thread.tid, oracle, injector, mgr

    def test_staging_labels(self):
        tid, oracle, injector, mgr = self._world()
        injector.arm(STAGE_COMPLETE)
        with pytest.raises(CrashInjected):
            mgr.checkpoint_process()
        assert oracle.pending_labels() == [
            "proc[0].metadata",
            f"t{tid}.ckpt[0].descriptor",
            f"t{tid}.ckpt[0].stage_run[0]",
        ]

    def test_commit_marker_label(self):
        tid, oracle, _, mgr = self._world()
        record, _ = mgr.checkpoint_process()
        assert record.committed
        assert oracle.pending_labels() == [f"t{tid}.ckpt[0].commit"]


class TestFixedScale:
    def test_scale_reduces_fixed_costs(self):
        ck_full, tr1, _ = engine()
        tr1.observe_store(REGION.start, 8)
        full = ck_full.checkpoint(0)

        tracker = ProsperTracker(TrackerConfig())
        bitmap = DirtyBitmap(REGION, 8)
        tracker.configure(bitmap)
        ck_scaled = ProsperCheckpointEngine(
            tracker, bitmap, MemoryHierarchy(setup_i()), fixed_scale=0.01
        )
        tracker.observe_store(REGION.start, 8)
        scaled = ck_scaled.checkpoint(0)
        assert scaled.cycles < full.cycles
