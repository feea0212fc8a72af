"""Differential suite: kernel quanta on the batched engine vs the per-op loop.

The kernel machine runs each quantum as a slice of the thread's trace array
on the core's :class:`~repro.cpu.engine_fast.BatchedExecutionEngine`.  The
reference below is the per-op ``Op`` interpreter the kernel used before,
kept verbatim.  Both must agree on everything a run leaves behind: run and
scheduler stats, checkpoint records, DRAM and NVM stack images, recovery
reports, bitmaps, registers, and every cache level's and device's stats.
"""

import dataclasses

import numpy as np
import pytest

from repro.cpu.engine import trace_array
from repro.cpu.ops import Op, OpKind, TraceBuilder, array_to_ops
from repro.kernel.multicore import (
    CROSS_THREAD_FAULT_CYCLES,
    CoreState,
    MultiCoreSimulation,
)
from repro.kernel.simulation import MultiThreadSimulation
from repro.memory.address import AddressRange
from repro.workloads.callstack import quicksort_workload
from repro.workloads.trace import Trace

#: Live frame each generated thread pushes first; stores land inside it.
FRAME = 16 * 1024


class ReferenceQuanta:
    """The per-op quantum interpreter, as the kernel ran it before quanta
    moved onto the batched engine.  It unpacks each quantum's slice of the
    queued array into ``Op`` records."""

    def _run_quantum(self, core: CoreState, slot: int) -> int:
        thread, ops, cursor = core.queue[slot]
        end = min(cursor + self.quantum_ops, len(ops))
        cycles = core.scheduler.switch_to(thread)
        self.stats.switches += 1
        hierarchy = core.hierarchy
        tracker = core.tracker
        image = self.dram_images[thread.tid]
        regs = thread.registers
        for op in array_to_ops(ops[cursor:end]):
            kind = op.kind
            if kind == OpKind.COMPUTE:
                cycles += op.size
            elif kind == OpKind.CALL:
                regs.push_frame(op.size)
                cycles += 1
            elif kind == OpKind.RET:
                regs.pop_frame(op.size)
                cycles += 1
            else:
                result = hierarchy.access(op.address, op.size, kind == OpKind.WRITE)
                cycles += result.latency_cycles
                if kind == OpKind.WRITE:
                    if thread.stack.contains(op.address):
                        cycles += tracker.observe_store(op.address, op.size)
                        # Deterministic content: value derives from the
                        # writing thread and its op position, so recovery
                        # checks can recompute expected bytes.
                        image.write(op.address, (thread.tid << 32) | regs.op_index)
                    elif self.process.handle_cross_thread_write(
                        thread.tid, op.address, op.size
                    ):
                        # Cross-thread stack write: the OS fault path
                        # recorded it in the victim's bitmap.
                        cycles += CROSS_THREAD_FAULT_CYCLES
                        for victim in self.process.iter_threads():
                            if victim.stack.contains(op.address):
                                self.dram_images[victim.tid].write(
                                    op.address, (thread.tid << 32) | regs.op_index
                                )
            regs.op_index += 1
        self.stats.ops_executed += end - cursor
        core.queue[slot] = (thread, ops, end)
        return cycles


class ReferenceMultiThread(ReferenceQuanta, MultiThreadSimulation):
    pass


class ReferenceMultiCore(ReferenceQuanta, MultiCoreSimulation):
    pass


# ---------------------------------------------------------------------- #
# Traces
# ---------------------------------------------------------------------- #


def mixed_stream(me, threads, heap, ops, seed, cross=0.05, heap_share=0.3):
    """Random kernel traffic for thread *me*: a live frame, then stores and
    loads into it, the heap and (a *cross* share) other threads' frames,
    with nested calls, compute and multi-line accesses."""
    rng = np.random.default_rng(seed)
    others = [t for t in threads if t is not me]
    builder = TraceBuilder()
    builder.call(FRAME)
    depth = []
    for _ in range(ops):
        r = rng.random()
        if r < 0.05:
            frame = int(rng.integers(1, 32)) * 16
            builder.call(frame)
            depth.append(frame)
        elif r < 0.10 and depth:
            builder.ret(depth.pop())
        elif r < 0.15:
            builder.compute(int(rng.integers(1, 20)))
        else:
            write = rng.random() < 0.6
            size = 8 if rng.random() < 0.9 else int(rng.choice([16, 64]))
            offset = int(rng.integers(0, FRAME // 8 - 8)) * 8
            if rng.random() < 0.1:
                offset += 56 - offset % 64  # straddle a cache line
            target = rng.random()
            if others and target < cross:
                victim = others[int(rng.integers(0, len(others)))]
                address = victim.stack.end - FRAME + offset
            elif target < cross + heap_share:
                address = heap.start + int(rng.integers(0, 1 << 16)) * 8
            else:
                address = me.stack.end - FRAME + offset
            (builder.write if write else builder.read)(address, size)
    return builder.to_array()


def heap_heavy_trace(thread, seed):
    """The benchmark's kernel workload shape: quicksort over a heap array."""
    return quicksort_workload(
        elements=96, repeats=2, stack=thread.stack,
        heap=AddressRange(0x1000_0000, 0x1100_0000), seed=seed,
    )


def fill_queues(sim, kind, ops, seed):
    threads = list(sim.process.iter_threads())
    heap = sim.process.layout.heap_range
    for core in sim.cores:
        for slot, (thread, _ops, _cursor) in enumerate(core.queue):
            tseed = seed * 100 + thread.tid
            if kind == "heap":
                trace = heap_heavy_trace(thread, tseed)
            else:
                trace = Trace(
                    mixed_stream(thread, threads, heap, ops, tseed), thread.stack
                )
            core.queue[slot] = (thread, trace.array, 0)


# ---------------------------------------------------------------------- #
# What a run leaves behind
# ---------------------------------------------------------------------- #


def machine_state(sim):
    def device(dev):
        return None if dev is None else dataclasses.asdict(dev.stats)

    return {
        "stats": dataclasses.asdict(sim.stats),
        "scheduler": [dataclasses.asdict(c.scheduler.stats) for c in sim.cores],
        "checkpoints": [
            (
                record.sequence,
                record.committed,
                record.total_bytes,
                record.metadata_crc,
                [
                    (s.tid, s.registers, s.dirty_runs, s.copied_bytes)
                    for s in record.threads
                ],
            )
            for record in sim.manager.checkpoints
        ],
        "dram": {tid: sorted(img.iter_words()) for tid, img in sim.dram_images.items()},
        "nvm": {tid: sorted(img.iter_words()) for tid, img in sim.nvm_images.items()},
        "threads": [
            (t.tid, t.registers, t.bitmap.snapshot_words().tolist())
            for t in sim.process.iter_threads()
        ],
        "memory": [
            (
                dataclasses.asdict(c.hierarchy.l1.stats),
                dataclasses.asdict(c.hierarchy.l2.stats),
                dataclasses.asdict(c.hierarchy.l3.stats),
                device(c.hierarchy.dram),
                device(c.hierarchy.nvm),
                c.hierarchy.now,
            )
            for c in sim.cores
        ],
        "tracker": [
            (dataclasses.asdict(c.tracker.stats), c.tracker.table_reads)
            for c in sim.cores
        ],
    }


def crash_and_recover(sim):
    sim.crash()
    report = sim.recover()
    return dataclasses.asdict(report), sim.verify_recovered_contents()


# ---------------------------------------------------------------------- #
# One core: stop, crash, recover, resume
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("kind", ["mixed", "heap"])
@pytest.mark.parametrize("stop_after", [3, 7])
def test_multithread_stop_crash_resume(kind, stop_after):
    sims = []
    for cls in (ReferenceMultiThread, MultiThreadSimulation):
        sim = cls([[Op(OpKind.COMPUTE, size=1)]] * 3, quantum_ops=173,
                  checkpoint_every_quanta=2)
        fill_queues(sim, kind, ops=900, seed=stop_after)
        sims.append(sim)
    ref, new = sims
    stages = []
    for sim in sims:
        sim.run(stop_after_quanta=stop_after)
        stage = [machine_state(sim), crash_and_recover(sim), machine_state(sim)]
        sim.resume()
        stage += [machine_state(sim), crash_and_recover(sim), machine_state(sim)]
        stages.append(stage)
    assert stages[0] == stages[1]
    # The run did real work: checkpoints happened before and after the crash.
    assert new.stats.checkpoints >= 2
    assert ref.stats.ops_executed == new.stats.ops_executed > 0


@pytest.mark.parametrize("as_type", ["list", "array", "trace"])
def test_multithread_queue_types_agree(as_type):
    """The constructor packs an Op list, an array or a Trace into the same
    queued array.  A process lays out its stacks deterministically, so
    streams built against one machine's threads fit a fresh machine's."""
    layout = MultiThreadSimulation([[Op(OpKind.COMPUTE, size=1)]] * 2)
    fill_queues(layout, "mixed", ops=700, seed=5)
    form = {
        "list": lambda thread, arr: array_to_ops(arr),
        "array": lambda thread, arr: arr,
        "trace": lambda thread, arr: Trace(arr, thread.stack),
    }[as_type]
    streams = [form(thread, arr) for thread, arr, _ in layout.cores[0].queue]
    sims = []
    for cls in (ReferenceMultiThread, MultiThreadSimulation):
        sim = cls(streams, quantum_ops=250)
        sim.run()
        sims.append(machine_state(sim))
    assert sims[0] == sims[1]


# ---------------------------------------------------------------------- #
# One to three cores
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("quantum", [97, 250])
@pytest.mark.parametrize("kind", ["mixed", "heap"])
def test_multicore_matches_reference(cores, quantum, kind):
    states = []
    for cls in (ReferenceMultiCore, MultiCoreSimulation):
        sim = cls([[Op(OpKind.COMPUTE, size=1)]] * (cores + 1), num_cores=cores,
                  quantum_ops=quantum, checkpoint_every_rounds=2)
        fill_queues(sim, kind, ops=800, seed=cores)
        sim.run()
        written_by = {
            tid: {value >> 32 for _address, value in image.iter_words()}
            for tid, image in sim.dram_images.items()
        }
        states.append([machine_state(sim), crash_and_recover(sim), machine_state(sim)])
    assert states[0] == states[1]
    if kind == "mixed":
        # Some thread's stack holds another thread's stores.
        assert any(writers - {tid} for tid, writers in written_by.items())


def test_cross_thread_writes_take_the_fault_path():
    """A store into another thread's stack takes the OS fault path and lands
    in the victim's image; heap stores take no fault, as in the per-op loop."""
    sim = MultiThreadSimulation([[Op(OpKind.COMPUTE, size=1)]] * 2, quantum_ops=1000)
    (me, _, _), (other, _, _) = sim.cores[0].queue
    heap = sim.process.layout.heap_range.start
    cross = [Op(OpKind.WRITE, other.stack.end - 64, 8)]
    heap_writes = [Op(OpKind.WRITE, heap + 8 * i, 8) for i in range(5)]
    sim.cores[0].queue = [
        (me, trace_array(cross + heap_writes), 0), (other, trace_array([]), 0)
    ]
    stats = sim.run()
    assert sim.dram_images[other.tid].read(other.stack.end - 64) == (me.tid << 32)
    assert stats.cycles > CROSS_THREAD_FAULT_CYCLES
    ref = ReferenceMultiThread([[Op(OpKind.COMPUTE, size=1)]] * 2, quantum_ops=1000)
    (rme, _, _), (rother, _, _) = ref.cores[0].queue
    ref.cores[0].queue = [
        (rme, trace_array(cross + heap_writes), 0), (rother, trace_array([]), 0)
    ]
    assert dataclasses.asdict(ref.run()) == dataclasses.asdict(stats)


def test_call_below_stack_raises():
    """A CALL past the stack base faults instead of letting the thread's
    stores land silently in the neighbouring stack."""
    sim = MultiThreadSimulation([[Op(OpKind.COMPUTE, size=1)]] * 2)
    (me, _, _), (neighbour, _, _) = sim.cores[0].queue
    below = neighbour.stack.end - 64
    ops = [Op(OpKind.CALL, size=me.stack.end - below), Op(OpKind.WRITE, below, 8)]
    sim.cores[0].queue = [(me, trace_array(ops), 0), (neighbour, trace_array([]), 0)]
    with pytest.raises(RuntimeError, match="stack overflow"):
        sim.run()
    assert len(sim.dram_images[neighbour.tid]) == 0


def test_engine_keeps_no_write_log_across_quanta():
    """Quanta never close an engine interval, so the engine logs no stack
    writes for one: its memory stays flat however long the run."""
    sim = MultiCoreSimulation([[Op(OpKind.COMPUTE, size=1)]] * 2, num_cores=2,
                              quantum_ops=100)
    fill_queues(sim, "heap", ops=0, seed=1)
    sim.run()
    assert sim.stats.ops_executed > 1000
    for core in sim.cores:
        assert core.engine.stats.stack_writes > 0
        assert len(core.engine._stack_stores) == 0
