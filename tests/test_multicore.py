"""Tests for the multi-core simulation."""

import numpy as np
import pytest

from repro.cpu.engine import trace_array
from repro.cpu.ops import Op, OpKind
from repro.kernel.multicore import MultiCoreSimulation


def thread_trace(thread, writes=400, seed=0):
    rng = np.random.default_rng(seed)
    frame = thread.stack.size // 2
    ops = [Op(OpKind.CALL, size=frame)]
    base = thread.stack.end - frame
    for off in (rng.integers(0, frame // 8, size=writes) * 8):
        ops.append(Op(OpKind.WRITE, base + int(off), 8))
    return trace_array(ops)


def build_sim(num_threads=4, num_cores=2, writes=400, **kwargs):
    sim = MultiCoreSimulation(
        [[Op(OpKind.COMPUTE, size=1)] for _ in range(num_threads)],
        num_cores=num_cores,
        **kwargs,
    )
    for core in sim.cores:
        for slot, (thread, _, _) in enumerate(core.queue):
            core.queue[slot] = (thread, thread_trace(thread, writes, thread.tid), 0)
    return sim


class TestConstruction:
    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            MultiCoreSimulation([[Op(OpKind.COMPUTE, size=1)]], num_cores=0)

    def test_threads_distributed_round_robin(self):
        sim = build_sim(num_threads=5, num_cores=2)
        assert len(sim.cores[0].queue) == 3
        assert len(sim.cores[1].queue) == 2

    def test_per_core_trackers_distinct(self):
        sim = build_sim()
        assert sim.cores[0].tracker is not sim.cores[1].tracker


class TestExecution:
    def test_all_ops_run(self):
        sim = build_sim(num_threads=4, num_cores=2, writes=300, quantum_ops=100)
        stats = sim.run()
        assert stats.ops_executed == 4 * 301
        assert stats.checkpoints >= 1

    def test_parallelism_beats_single_core(self):
        two = build_sim(num_threads=4, num_cores=2, writes=400, quantum_ops=100)
        two_stats = two.run()
        one = build_sim(num_threads=4, num_cores=1, writes=400, quantum_ops=100)
        one_stats = one.run()
        assert two_stats.wall_cycles < one_stats.wall_cycles
        assert two_stats.ops_executed == one_stats.ops_executed

    def test_utilization_bounded(self):
        sim = build_sim(num_threads=4, num_cores=2, writes=300)
        stats = sim.run()
        assert 0.0 < stats.utilization <= 2.0 + 1e-9  # <= num_cores

    def test_every_thread_checkpointed(self):
        sim = build_sim(num_threads=4, num_cores=2, writes=300, quantum_ops=64)
        sim.run()
        last = sim.manager.last_committed
        assert last is not None
        assert {s.tid for s in last.threads} == set(sim.process.threads)


class TestCrossThreadWrites:
    def test_write_into_other_cores_stack_is_checkpointed(self):
        """A store into a live frame of a thread on another core takes the
        OS fault path into the victim's bitmap, so the victim's checkpoint
        copies it."""
        sim = MultiCoreSimulation(
            [[Op(OpKind.COMPUTE, size=1)] for _ in range(2)], num_cores=2
        )
        (writer, _, _), = sim.cores[0].queue
        (victim, _, _), = sim.cores[1].queue
        frame = victim.stack.size // 2
        base = victim.stack.end - frame
        writes = [Op(OpKind.WRITE, base + 64 * i, 8) for i in range(64)]
        sim.cores[0].queue[0] = (writer, trace_array(writes), 0)
        # The victim's frame stays live, so its checkpoint covers the writes.
        sim.cores[1].queue[0] = (victim, trace_array([Op(OpKind.CALL, size=frame)]), 0)
        sim.run()
        copied = sum(
            snap.copied_bytes
            for record in sim.manager.checkpoints
            for snap in record.threads
            if snap.tid == victim.tid
        )
        assert copied > 0
        # Recovery brings back the writer's last store in the victim's stack.
        sim.crash()
        assert sim.recover().recovered
        last = writes[-1].address
        assert sim.dram_images[victim.tid].read(last) == (writer.tid << 32) | 63


class TestCrashRecovery:
    def test_recovery_across_cores(self):
        sim = build_sim(num_threads=4, num_cores=2, writes=300, quantum_ops=64)
        sim.run()
        expected = {
            t.tid: t.registers.op_index for t in sim.process.iter_threads()
        }
        sim.crash()
        report = sim.recover()
        assert report.recovered
        for tid, op_index in expected.items():
            assert sim.process.thread(tid).registers.op_index == op_index
