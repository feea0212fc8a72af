"""Tests for repro.cpu: ops, registers, and the execution engine."""

import numpy as np
import pytest

from repro.cpu.engine import ExecutionEngine
from repro.cpu.ops import (
    TRACE_DTYPE,
    Op,
    OpKind,
    TraceBuilder,
    array_to_ops,
    ops_to_array,
)
from repro.cpu.registers import RegisterFile
from repro.memory.address import AddressRange
from repro.persistence.base import IntervalContext, PersistenceMechanism

STACK = AddressRange(0x7000_0000, 0x7010_0000)


class TestOps:
    def test_is_memory(self):
        assert Op(OpKind.READ, 0x10).is_memory
        assert Op(OpKind.WRITE, 0x10).is_memory
        assert not Op(OpKind.CALL, size=64).is_memory
        assert not Op(OpKind.COMPUTE, size=100).is_memory

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            Op(OpKind.READ, 0, size=-1)

    def test_array_roundtrip(self):
        ops = [Op(OpKind.WRITE, 0x1234, 8), Op(OpKind.CALL, 0, 128)]
        arr = ops_to_array(ops)
        assert arr.dtype == TRACE_DTYPE
        back = array_to_ops(arr)
        assert back == ops


class TestTraceBuilderExtend:
    @pytest.mark.parametrize(
        "kinds, addresses, sizes",
        [
            (4, 0, np.array([-5, 2**33 + 7])),  # numpy would wrap both
            (1, 0x1000, np.array([8, 2**32])),
            (1, 0x1000, -1),
            (1, np.array([0x1000, -8]), 8),
            (1, [2**64], 8),
            (np.array([1, max(OpKind) + 1]), 0x1000, 8),
            (-1, 0x1000, 8),
        ],
    )
    def test_rejects_values_that_do_not_fit(self, kinds, addresses, sizes):
        builder = TraceBuilder()
        with pytest.raises(ValueError, match="out of range"):
            builder.extend(kinds, addresses, sizes)
        assert len(builder) == 0

    def test_column_limits_stored_exactly(self):
        builder = TraceBuilder()
        builder.extend([int(OpKind.READ), max(OpKind)], [0, 2**64 - 1], [0, 2**32 - 1])
        arr = builder.to_array()
        assert arr["kind"].tolist() == [int(OpKind.READ), int(max(OpKind))]
        assert arr["address"].tolist() == [0, 2**64 - 1]
        assert arr["size"].tolist() == [0, 2**32 - 1]

    @pytest.mark.parametrize(
        "op", [(9, 0, 8), (1, -8, 8), (1, 0, -1), (1, 2**64, 8), (1, 0, 2**32)]
    )
    def test_append_is_range_checked_when_packed(self, op):
        builder = TraceBuilder()
        builder.append(*op)
        with pytest.raises(ValueError, match="out of range"):
            builder.to_array()
        with pytest.raises(ValueError, match="out of range"):
            builder.extend(1, 0, 8)

    def test_empty_column_appends_nothing(self):
        builder = TraceBuilder()
        builder.extend(4, 0, [])
        assert len(builder) == 0
        assert len(builder.to_array()) == 0

    def test_mismatched_columns_name_the_columns(self):
        builder = TraceBuilder()
        with pytest.raises(ValueError, match=r"kind \(3,\), address \(2,\), size"):
            builder.extend([1, 2, 3], [0, 8], 8)
        assert len(builder) == 0

    def test_all_scalar_columns_append_one_op(self):
        builder = TraceBuilder()
        builder.extend(int(OpKind.WRITE), 0x40, 8)
        assert builder.to_array().tolist() == [(int(OpKind.WRITE), 0x40, 8)]

    def test_matches_append(self):
        vector, scalar = TraceBuilder(), TraceBuilder()
        vector.extend(int(OpKind.WRITE), np.arange(4, dtype=np.int64) * 8, 8)
        for i in range(4):
            scalar.append(int(OpKind.WRITE), i * 8, 8)
        assert vector.to_array().tobytes() == scalar.to_array().tobytes()


class TestRegisterFile:
    def test_push_pop_frame(self):
        regs = RegisterFile(stack_pointer=0x1000)
        assert regs.push_frame(0x100) == 0xF00
        assert regs.pop_frame(0x100) == 0x1000

    def test_rejects_negative_frame(self):
        with pytest.raises(ValueError):
            RegisterFile().push_frame(-8)

    def test_snapshot_restore(self):
        regs = RegisterFile(stack_pointer=0x2000, op_index=5)
        regs.gprs[3] = 42
        snap = regs.snapshot()
        regs.stack_pointer = 0
        regs.gprs[3] = 0
        regs.restore(snap)
        assert regs.stack_pointer == 0x2000
        assert regs.gprs[3] == 42
        # Snapshot is deep: mutating restored gprs must not touch snapshot.
        regs.gprs[3] = 7
        assert snap.gprs[3] == 42


class TestEngineBasics:
    def test_sp_follows_call_ret(self):
        engine = ExecutionEngine(stack_range=STACK)
        engine.run([Op(OpKind.CALL, size=256), Op(OpKind.RET, size=256)])
        assert engine.registers.stack_pointer == STACK.end

    def test_stack_overflow_detected(self):
        engine = ExecutionEngine(stack_range=AddressRange(0x1000, 0x2000))
        with pytest.raises(RuntimeError, match="overflow"):
            engine.run([Op(OpKind.CALL, size=0x2000)])

    def test_compute_advances_time_only(self):
        engine = ExecutionEngine(stack_range=STACK)
        stats = engine.run([Op(OpKind.COMPUTE, size=500)])
        assert stats.app_cycles == 500
        assert stats.ops_executed == 1

    def test_stack_vs_other_classification(self):
        engine = ExecutionEngine(stack_range=STACK)
        stats = engine.run(
            [
                Op(OpKind.WRITE, STACK.start + 8, 8),
                Op(OpKind.READ, STACK.start + 8, 8),
                Op(OpKind.WRITE, 0x1000, 8),
            ]
        )
        assert stats.stack_writes == 1
        assert stats.stack_reads == 1
        assert stats.other_writes == 1

    def test_normalized_time_is_one_without_mechanism(self):
        engine = ExecutionEngine(stack_range=STACK)
        stats = engine.run([Op(OpKind.WRITE, STACK.start, 8)] * 10)
        assert stats.normalized_time == 1.0


class _CountingMechanism(PersistenceMechanism):
    """Records hook invocations for engine-integration assertions."""

    name = "counting"

    def __init__(self, store_cost: int = 0, interval_cost: int = 0):
        super().__init__()
        self.store_cost = store_cost
        self.interval_cost = interval_cost
        self.starts = 0
        self.ends = 0
        self.contexts: list[IntervalContext] = []

    def on_store(self, address, size, now):
        self.stats.stores_seen += 1
        return self.store_cost

    def on_interval_start(self, ctx):
        self.starts += 1
        return 0

    def on_interval_end(self, ctx):
        self.ends += 1
        self.contexts.append(ctx)
        return self.interval_cost


class TestEngineIntervals:
    def test_interval_ops_boundaries(self):
        mech = _CountingMechanism()
        engine = ExecutionEngine(stack_range=STACK, mechanism=mech)
        ops = [Op(OpKind.WRITE, STACK.start + 8, 8)] * 10
        engine.run(ops, interval_ops=3)
        # 10 ops / 3 per interval = 3 full boundaries + final checkpoint.
        assert mech.ends == 4
        assert mech.starts == 4

    def test_interval_cycles_boundaries(self):
        mech = _CountingMechanism()
        engine = ExecutionEngine(stack_range=STACK, mechanism=mech)
        ops = [Op(OpKind.COMPUTE, size=100)] * 10
        engine.run(ops, interval_cycles=250)
        assert mech.ends >= 4

    def test_no_intervals_without_config(self):
        mech = _CountingMechanism()
        engine = ExecutionEngine(stack_range=STACK, mechanism=mech)
        engine.run([Op(OpKind.COMPUTE, size=100)] * 5)
        assert mech.ends == 0

    def test_final_checkpoint_optional(self):
        mech = _CountingMechanism()
        engine = ExecutionEngine(stack_range=STACK, mechanism=mech)
        engine.run(
            [Op(OpKind.COMPUTE, size=10)] * 4,
            interval_ops=100,
            final_checkpoint=False,
        )
        assert mech.ends == 0

    def test_store_hook_cost_charged_as_inline(self):
        mech = _CountingMechanism(store_cost=7)
        engine = ExecutionEngine(stack_range=STACK, mechanism=mech)
        stats = engine.run([Op(OpKind.WRITE, STACK.start + 8, 8)] * 5)
        assert stats.inline_cycles == 35

    def test_interval_cost_charged_separately(self):
        mech = _CountingMechanism(interval_cost=1000)
        engine = ExecutionEngine(stack_range=STACK, mechanism=mech)
        stats = engine.run([Op(OpKind.COMPUTE, size=10)] * 4, interval_ops=2)
        assert stats.interval_cycles == 2000
        assert stats.normalized_time > 1.0

    def test_context_carries_min_sp(self):
        mech = _CountingMechanism()
        engine = ExecutionEngine(stack_range=STACK, mechanism=mech)
        ops = [
            Op(OpKind.CALL, size=4096),
            Op(OpKind.WRITE, STACK.end - 4096 + 8, 8),
            Op(OpKind.RET, size=4096),
        ]
        engine.run(ops, interval_ops=10)
        ctx = mech.contexts[0]
        assert ctx.final_sp == STACK.end
        assert ctx.min_sp == STACK.end - 4096

    def test_beyond_final_sp_recorded(self):
        engine = ExecutionEngine(stack_range=STACK)
        ops = [
            Op(OpKind.CALL, size=8192),
            Op(OpKind.WRITE, STACK.end - 8192 + 8, 8),  # dies with the frame
            Op(OpKind.RET, size=4096),  # partial pop: SP = end - 4096
            Op(OpKind.WRITE, STACK.end - 4096 + 8, 8),  # inside live frame
        ]
        stats = engine.run(ops, interval_ops=10)
        rec = stats.intervals[0]
        assert rec.final_sp == STACK.end - 4096
        assert rec.stack_writes == 2
        assert rec.stack_writes_beyond_final_sp == 1

    def test_invalid_interval_args(self):
        engine = ExecutionEngine(stack_range=STACK)
        with pytest.raises(ValueError):
            engine.run([], interval_cycles=-1)
        with pytest.raises(ValueError):
            engine.run([], interval_ops=0)


class TestHeapRouting:
    def test_heap_mechanism_sees_heap_ops_only(self):
        heap = AddressRange(0x1000_0000, 0x1100_0000)
        stack_mech = _CountingMechanism()
        heap_mech = _CountingMechanism()
        engine = ExecutionEngine(
            stack_range=STACK,
            mechanism=stack_mech,
            heap_range=heap,
            heap_mechanism=heap_mech,
        )
        engine.run(
            [
                Op(OpKind.WRITE, STACK.start + 8, 8),
                Op(OpKind.WRITE, heap.start + 8, 8),
                Op(OpKind.WRITE, 0x2000, 8),  # neither region
            ]
        )
        assert stack_mech.stats.stores_seen == 1
        assert heap_mech.stats.stores_seen == 1

    def test_heap_mechanism_requires_range(self):
        with pytest.raises(ValueError):
            ExecutionEngine(
                stack_range=STACK, heap_mechanism=_CountingMechanism()
            )

    def test_nvm_residency_follows_mechanism(self):
        class NvmMech(_CountingMechanism):
            region_in_nvm = True

        engine = ExecutionEngine(stack_range=STACK, mechanism=NvmMech())
        engine.run([Op(OpKind.READ, STACK.start + 8, 8)])
        assert engine.hierarchy.nvm.stats.reads == 1
