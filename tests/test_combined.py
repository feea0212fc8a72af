"""Heap+stack engine composition: one mechanism per region."""

from repro.cpu.engine import ExecutionEngine
from repro.cpu.ops import Op, OpKind
from repro.memory.address import AddressRange
from repro.persistence.dirtybit import DirtyBitPersistence
from repro.persistence.prosper import ProsperPersistence
from repro.persistence.ssp import SspPersistence

STACK = AddressRange(0x7000_0000, 0x7010_0000)
HEAP = AddressRange(0x1000_0000, 0x1100_0000)


def run_combo(stack_mech, heap_mech, ops):
    engine = ExecutionEngine(
        stack_range=STACK,
        mechanism=stack_mech,
        heap_range=HEAP,
        heap_mechanism=heap_mech,
    )
    # A full-region frame keeps every stack write live under the SP-aware
    # checkpoint copy.
    ops = [Op(OpKind.CALL, size=STACK.size)] + list(ops)
    stats = engine.run(ops, interval_ops=len(ops))
    return engine, stats


class TestRegionIsolation:
    def test_heap_in_nvm_stack_in_dram(self):
        stack_mech = ProsperPersistence()  # DRAM stack
        heap_mech = SspPersistence(1000)  # NVM heap
        engine, _ = run_combo(
            stack_mech,
            heap_mech,
            [
                Op(OpKind.READ, STACK.start + 8, 8),
                Op(OpKind.READ, HEAP.start + 8, 8),
            ],
        )
        # Exactly one of the two demand misses hit NVM (the heap one).
        assert engine.hierarchy.nvm.stats.reads == 1
        assert engine.hierarchy.dram.stats.reads >= 1

    def test_each_mechanism_checkpoints_its_region(self):
        stack_mech = ProsperPersistence()
        heap_mech = DirtyBitPersistence()
        ops = [
            Op(OpKind.WRITE, STACK.start + 8, 8),
            Op(OpKind.WRITE, HEAP.start + 8, 8),
            Op(OpKind.WRITE, HEAP.start + 8192, 8),
        ]
        run_combo(stack_mech, heap_mech, ops)
        assert stack_mech.stats.total_checkpoint_bytes == 8
        assert heap_mech.stats.total_checkpoint_bytes == 2 * 4096
