"""Tests for the checkpoint-family mechanisms: none/dirtybit/writeprotect/prosper."""

from repro.config import PAGE_BYTES, TrackerConfig
from repro.cpu.engine import ExecutionEngine
from repro.cpu.ops import Op, OpKind
from repro.faults.injector import (
    PERSIST_BARRIER,
    STAGE_BEGIN,
    STAGE_COMPLETE,
    FaultInjector,
    stage_run_copy,
)
from repro.memory.address import AddressRange
from repro.persistence.dirtybit import DirtyBitPersistence
from repro.persistence.none import NoPersistence
from repro.persistence.prosper import ProsperPersistence
from repro.persistence.writeprotect import WriteProtectPersistence

STACK = AddressRange(0x7000_0000, 0x7010_0000)


def run(mechanism, ops, interval_ops=None):
    """Run *ops* under one big live frame (SP at the region base).

    Checkpoints are SP-aware: without the frame, every write would be
    below the final SP and dropped as dead-frame data.
    """
    engine = ExecutionEngine(stack_range=STACK, mechanism=mechanism)
    frame = Op(OpKind.CALL, size=STACK.size)
    stats = engine.run(
        [frame] + list(ops), interval_ops=(interval_ops or len(ops)) + 1
    )
    return engine, stats


def stack_writes(addresses):
    return [Op(OpKind.WRITE, a, 8) for a in addresses]


class TestNoPersistence:
    def test_zero_cost(self):
        mech = NoPersistence()
        _, stats = run(mech, stack_writes([STACK.start + 8] * 20))
        assert stats.inline_cycles == 0
        assert mech.stats.checkpoint_bytes in ([], [0])

    def test_capabilities(self):
        caps = NoPersistence.capabilities
        assert not caps.achieves_process_persistence
        assert caps.allows_stack_in_dram


class TestDirtyBit:
    def test_one_write_copies_whole_page(self):
        mech = DirtyBitPersistence()
        run(mech, stack_writes([STACK.start + 8]))
        assert mech.stats.checkpoint_bytes == [PAGE_BYTES]

    def test_writes_in_same_page_coalesce(self):
        mech = DirtyBitPersistence()
        run(mech, stack_writes([STACK.start + i * 8 for i in range(16)]))
        assert mech.stats.checkpoint_bytes == [PAGE_BYTES]

    def test_two_pages(self):
        mech = DirtyBitPersistence()
        run(mech, stack_writes([STACK.start + 8, STACK.start + PAGE_BYTES + 8]))
        assert mech.stats.checkpoint_bytes == [2 * PAGE_BYTES]

    def test_dirty_state_clears_per_interval(self):
        mech = DirtyBitPersistence()
        ops = stack_writes([STACK.start + 8, STACK.start + 8])
        run(mech, ops, interval_ops=1)
        # Each interval re-dirties and copies the page again.
        assert mech.stats.checkpoint_bytes[:2] == [PAGE_BYTES, PAGE_BYTES]

    def test_no_store_cost(self):
        mech = DirtyBitPersistence()
        _, stats = run(mech, stack_writes([STACK.start + 8] * 50))
        assert stats.inline_cycles == 0

    def test_page_straddling_write(self):
        mech = DirtyBitPersistence()
        run(mech, [Op(OpKind.WRITE, STACK.start + PAGE_BYTES - 4, 8)])
        assert mech.stats.checkpoint_bytes == [2 * PAGE_BYTES]


class TestWriteProtect:
    def test_first_touch_faults(self):
        mech = WriteProtectPersistence()
        _, stats = run(mech, stack_writes([STACK.start + 8] * 10))
        assert mech.faults == 1
        assert stats.inline_cycles > 0

    def test_faults_once_per_page_per_interval(self):
        mech = WriteProtectPersistence()
        ops = stack_writes(
            [STACK.start + 8, STACK.start + 16, STACK.start + PAGE_BYTES + 8]
        )
        run(mech, ops)
        assert mech.faults == 2

    def test_costlier_than_dirtybit(self):
        ops = stack_writes([STACK.start + i * PAGE_BYTES for i in range(16)])
        wp = WriteProtectPersistence()
        _, wp_stats = run(wp, list(ops))
        db = DirtyBitPersistence()
        _, db_stats = run(db, list(ops))
        assert wp_stats.total_cycles > db_stats.total_cycles
        # Same checkpoint size — only the tracking overhead differs.
        assert wp.stats.checkpoint_bytes == db.stats.checkpoint_bytes

    def test_checkpoint_goes_through_the_staging_protocol(self):
        injector = FaultInjector()
        mech = WriteProtectPersistence()
        engine = ExecutionEngine(
            stack_range=STACK, mechanism=mech, fault_injector=injector
        )
        frame = Op(OpKind.CALL, size=STACK.size)
        ops = stack_writes([STACK.start + 8, STACK.start + PAGE_BYTES + 8])
        engine.run([frame] + ops, interval_ops=len(ops) + 1)
        assert list(injector.fired) == [
            STAGE_BEGIN,
            stage_run_copy(0),
            stage_run_copy(1),
            STAGE_COMPLETE,
            PERSIST_BARRIER,
        ]
        staged = mech.staging.staged
        assert staged.committed and staged.interval_index == 0
        assert [(r.start, r.end) for r in staged.runs] == [
            (STACK.start, STACK.start + PAGE_BYTES),
            (STACK.start + PAGE_BYTES, STACK.start + 2 * PAGE_BYTES),
        ]


class TestProsperMechanism:
    def test_copies_granules_not_pages(self):
        mech = ProsperPersistence()
        run(mech, stack_writes([STACK.start + 8]))
        assert mech.stats.checkpoint_bytes == [8]

    def test_granularity_rounds_copy_size(self):
        mech = ProsperPersistence(TrackerConfig().with_granularity(64))
        run(mech, stack_writes([STACK.start + 8]))
        assert mech.stats.checkpoint_bytes == [64]

    def test_much_smaller_than_dirtybit_for_sparse(self):
        ops = stack_writes([STACK.start + i * PAGE_BYTES for i in range(8)])
        prosper = ProsperPersistence()
        run(prosper, list(ops))
        dirtybit = DirtyBitPersistence()
        run(dirtybit, list(ops))
        ratio = (
            dirtybit.stats.total_checkpoint_bytes
            / prosper.stats.total_checkpoint_bytes
        )
        assert ratio == PAGE_BYTES / 8  # 512x for pure sparse writes

    def test_equal_footprint_for_stream(self):
        # Full-page streaming: fine tracking cannot shrink the copy.
        ops = stack_writes([STACK.start + i * 8 for i in range(PAGE_BYTES // 8)])
        prosper = ProsperPersistence()
        run(prosper, list(ops))
        assert prosper.stats.total_checkpoint_bytes == PAGE_BYTES

    def test_persisted_state_reports_commit(self):
        mech = ProsperPersistence()
        run(mech, stack_writes([STACK.start + 8]))
        assert mech.staging.last_committed_interval == 0

    def test_variant_name(self):
        assert ProsperPersistence().variant_name == "prosper-8B"
        assert (
            ProsperPersistence(TrackerConfig().with_granularity(128)).variant_name
            == "prosper-128B"
        )

    def test_capabilities_match_table_i(self):
        caps = ProsperPersistence.capabilities
        assert caps.achieves_process_persistence
        assert caps.works_without_compiler_support
        assert caps.stack_pointer_aware
        assert caps.allows_stack_in_dram
