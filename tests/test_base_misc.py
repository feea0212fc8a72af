"""Tests for the persistence base interface, motivation helpers, and
miscellaneous uncovered paths."""

import pytest

from repro.cpu.engine import ExecutionEngine
from repro.cpu.ops import Op, OpKind, array_to_ops
from repro.experiments.motivation import stack_only
from repro.kernel.layout import AddressSpaceLayout
from repro.kernel.vmem import PageTable
from repro.memory.address import AddressRange
from repro.persistence.base import (
    Capabilities,
    MechanismStats,
    PersistenceMechanism,
)
from repro.workloads.apps import ycsb_mem

STACK = AddressRange(0x7000_0000, 0x7010_0000)


class TestCapabilities:
    def test_as_row_marks(self):
        caps = Capabilities(True, False, True, False)
        assert caps.as_row() == ("yes", "no", "yes", "no")


class TestMechanismStats:
    def test_mean_properties_empty(self):
        stats = MechanismStats()
        assert stats.mean_checkpoint_bytes == 0.0
        assert stats.mean_checkpoint_cycles == 0.0
        assert stats.total_checkpoint_bytes == 0

    def test_mean_properties(self):
        stats = MechanismStats()
        stats.checkpoint_bytes = [10, 30]
        stats.checkpoint_cycles = [100, 200]
        assert stats.mean_checkpoint_bytes == 20
        assert stats.mean_checkpoint_cycles == 150


class TestBaseMechanism:
    def test_hooks_count_events(self):
        mech = PersistenceMechanism()
        engine = ExecutionEngine(stack_range=STACK, mechanism=mech)
        ops = [
            Op(OpKind.WRITE, STACK.start + 8, 8),
            Op(OpKind.READ, STACK.start + 8, 8),
        ]
        engine.run(ops, interval_ops=2)
        assert mech.stats.stores_seen == 1
        assert mech.stats.loads_seen == 1
        assert mech.stats.intervals == 1

    def test_unattached_hierarchy_raises(self):
        with pytest.raises(RuntimeError):
            PersistenceMechanism().hierarchy

    def test_fixed_scale_defaults_to_one(self):
        assert PersistenceMechanism().fixed_scale == 1.0

    def test_persisted_state_empty(self):
        assert PersistenceMechanism().persisted_state() == {}


class TestStackOnly:
    def test_keeps_only_stack_activity(self):
        full = ycsb_mem(target_ops=5_000)
        reduced = stack_only(full)
        assert len(reduced.array) < len(full.array)
        for op in array_to_ops(reduced.array):
            if op.is_memory:
                assert full.stack_range.contains(op.address)
            else:
                assert op.kind in (OpKind.CALL, OpKind.RET)

    def test_preserves_sp_balance(self):
        full = ycsb_mem(target_ops=5_000)
        reduced = stack_only(full)
        sp = reduced.stack_range.end
        for op in array_to_ops(reduced.array):
            if op.kind == OpKind.CALL:
                sp -= op.size
            elif op.kind == OpKind.RET:
                sp += op.size
        assert sp == reduced.stack_range.end


class TestEngineProperties:
    def test_user_ipc_excludes_interval_work(self):
        class Expensive(PersistenceMechanism):
            def on_interval_end(self, ctx):
                return 1_000_000

        mech = Expensive()
        engine = ExecutionEngine(stack_range=STACK, mechanism=mech)
        stats = engine.run([Op(OpKind.COMPUTE, size=10)] * 10, interval_ops=5)
        with_interval = stats.ops_executed / stats.total_cycles
        assert stats.user_ipc > with_interval * 100

    def test_user_ipc_zero_when_empty(self):
        engine = ExecutionEngine(stack_range=STACK)
        assert engine.run([]).user_ipc == 0.0


class TestVmemExtras:
    def test_unmap_range(self):
        pt = PageTable()
        pt.map_range(AddressRange(0, 4 * 4096))
        removed = pt.unmap_range(AddressRange(4096, 3 * 4096))
        assert removed == 2
        assert pt.mapped_pages == 2
        assert not pt.is_mapped(4096)

    def test_map_range_idempotent(self):
        pt = PageTable()
        assert pt.map_range(AddressRange(0, 8192)) == 2
        assert pt.map_range(AddressRange(0, 8192)) == 0


class TestLayoutExtras:
    def test_staging_buffer_in_nvm(self):
        layout = AddressSpaceLayout()
        staging = layout.allocate_staging_buffer(64 * 1024)
        assert layout.is_nvm_address(staging.start)
        assert staging.size == 64 * 1024

    def test_nvm_allocations_disjoint(self):
        layout = AddressSpaceLayout()
        stack = layout.allocate_stack(1 << 20)
        pstack = layout.allocate_persistent_stack(stack)
        staging = layout.allocate_staging_buffer(4096)
        assert not pstack.overlaps(staging)
