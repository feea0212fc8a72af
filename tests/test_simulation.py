"""Tests for the multithreaded end-to-end simulation."""

import numpy as np
import pytest

from repro.cpu.engine import trace_array
from repro.cpu.ops import Op, OpKind
from repro.faults.injector import (
    BARRIER_QUIESCE,
    CTX_RESTORE,
    CTX_SAVE,
    FaultInjector,
)
from repro.kernel.simulation import MultiThreadSimulation


def make_thread_ops(stack_size=512 * 1024, writes=600, seed=0):
    """Random stack writes within a frame the thread pushes first."""
    rng = np.random.default_rng(seed)
    ops = [Op(OpKind.CALL, size=stack_size // 2)]
    # Thread stacks are assigned at spawn; addresses are resolved relative
    # to each thread's own stack by the generator below.
    return ops, rng, writes


def build_sim(num_threads=2, writes=600, **kwargs):
    """Create a simulation whose traces write within each thread's stack."""
    sim = MultiThreadSimulation(
        [[Op(OpKind.COMPUTE, size=1)] for _ in range(num_threads)], **kwargs
    )
    # Rebuild each stream with addresses inside the spawned thread's stack.
    streams = []
    for i, (thread, _, _) in enumerate(sim.cores[0].queue):
        rng = np.random.default_rng(i)
        frame = thread.stack.size // 2
        ops = [Op(OpKind.CALL, size=frame)]
        base = thread.stack.end - frame
        offsets = rng.integers(0, frame // 8, size=writes) * 8
        for off in offsets:
            ops.append(Op(OpKind.WRITE, base + int(off), 8))
        # The frame stays live (no trailing RET): SP-aware checkpoints copy
        # only live frames, and the tests assert that data was captured.
        streams.append((thread, trace_array(ops), 0))
    sim.cores[0].queue = streams
    return sim


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MultiThreadSimulation([])

    def test_rejects_bad_quantum(self):
        with pytest.raises(ValueError):
            MultiThreadSimulation([[Op(OpKind.COMPUTE, size=1)]], quantum_ops=0)

    def test_threads_spawned_persistent(self):
        sim = build_sim(3)
        assert len(sim.process.threads) == 3
        assert all(t.persistent for t in sim.process.iter_threads())


class TestExecution:
    def test_all_ops_execute(self):
        sim = build_sim(2, writes=300, quantum_ops=100)
        stats = sim.run()
        assert stats.ops_executed == 2 * 301  # CALL + writes each
        assert stats.switches > 2  # interleaved, not one slice each

    def test_checkpoints_happen(self):
        sim = build_sim(2, writes=300, quantum_ops=50, checkpoint_every_quanta=4)
        stats = sim.run()
        assert stats.checkpoints >= 2
        assert stats.checkpoint_cycles > 0

    def test_both_threads_dirty_data_captured(self):
        sim = build_sim(2, writes=200, quantum_ops=64)
        sim.run()
        last = sim.manager.last_committed
        assert last is not None
        # Both threads contributed stack data to some checkpoint.
        copied_by_tid = {t.tid: 0 for t in sim.process.iter_threads()}
        for record in sim.manager.checkpoints:
            for snap in record.threads:
                copied_by_tid[snap.tid] += snap.copied_bytes
        assert all(v > 0 for v in copied_by_tid.values())

    def test_scheduler_saves_tracker_state(self):
        sim = build_sim(2, writes=200, quantum_ops=50)
        sim.run()
        assert sim.scheduler.stats.prosper_cycles > 0


class TestInjectorReach:
    def test_probe_reaches_switch_and_quiesce_points(self):
        """An attached injector sees the context-switch tracker save/restore
        and the quiesce barrier, so it can crash the run at either."""
        probe = FaultInjector(0)
        sim = build_sim(
            2, writes=200, quantum_ops=50, checkpoint_every_quanta=3, injector=probe
        )
        sim.run()
        assert {CTX_SAVE, CTX_RESTORE, BARRIER_QUIESCE} <= set(probe.fired)


class TestCrashRecovery:
    def test_crash_and_recover_multithreaded(self):
        sim = build_sim(2, writes=300, quantum_ops=64, checkpoint_every_quanta=3)
        sim.run()
        expected = {
            t.tid: t.registers.op_index for t in sim.process.iter_threads()
        }
        sim.crash()
        report = sim.recover()
        assert report.recovered
        # Every thread resumes at its last-checkpointed op index; the final
        # checkpoint ran after all ops completed, so indices match exactly.
        for tid, op_index in expected.items():
            assert sim.process.thread(tid).registers.op_index == op_index


class TestCrashResumeContinue:
    """Crash mid-run, recover, resume — final state must equal an
    uninterrupted run (the paper's kill-gem5-and-restart validation)."""

    def test_resumed_run_matches_uninterrupted(self):
        baseline = build_sim(2, writes=400, quantum_ops=50, checkpoint_every_quanta=3)
        baseline.run()
        expected_ops = {
            t.tid: t.registers.op_index for t in baseline.process.iter_threads()
        }
        expected_images = {
            tid: img.snapshot() for tid, img in baseline.dram_images.items()
        }

        crashed = build_sim(2, writes=400, quantum_ops=50, checkpoint_every_quanta=3)
        crashed.run(stop_after_quanta=7)  # die mid-run, past one checkpoint
        crashed.crash()
        report = crashed.recover()
        assert report.recovered
        # Threads rewound to the checkpointed op indices (some work lost).
        assert all(
            t.registers.op_index <= expected_ops[t.tid]
            for t in crashed.process.iter_threads()
        )
        crashed.resume()

        for thread in crashed.process.iter_threads():
            assert thread.registers.op_index == expected_ops[thread.tid]
            frame = thread.stack.size // 2
            from repro.memory.address import AddressRange

            live = AddressRange(thread.stack.end - frame, thread.stack.end)
            assert crashed.dram_images[thread.tid].equals_in_range(
                expected_images[thread.tid], live
            )

    def test_resume_without_checkpoint_replays_everything(self):
        sim = build_sim(1, writes=100, quantum_ops=50, checkpoint_every_quanta=1000)
        sim.run(stop_after_quanta=1)  # no checkpoint yet
        sim.crash()
        report = sim.recover()
        assert not report.recovered  # nothing committed: restart from zero
        for thread in sim.process.iter_threads():
            # Pristine registers: an empty stack at the first op.
            assert thread.registers.stack_pointer == thread.stack.end
            assert thread.registers.op_index == 0
        # Manual restart from scratch still completes.
        sim.resume()
        assert sim.process.thread(1).registers.op_index == 101
