#!/usr/bin/env python3
"""Multi-core persistence: per-core trackers, process-wide checkpoints.

Runs four persistent threads across one and two cores.  Each core has its
own Prosper dirty tracker (the paper's per-hardware-thread design); a
process-wide checkpoint quiesces every core's tracker, captures every
thread's registers and dirty stack data, and the whole process survives a
crash regardless of where each thread ran.

Run:  python examples/multicore_processes.py
"""

import numpy as np

from repro.cpu.ops import NO_OPS, OpKind, TraceBuilder
from repro.kernel.multicore import MultiCoreSimulation


def build(num_cores: int) -> MultiCoreSimulation:
    # Placeholder streams: the stacks are known once the threads exist.
    sim = MultiCoreSimulation(
        [NO_OPS] * 4,
        num_cores=num_cores,
        quantum_ops=128,
        checkpoint_every_rounds=3,
    )
    for core in sim.cores:
        for slot, (thread, _, _) in enumerate(core.queue):
            rng = np.random.default_rng(thread.tid)
            frame = thread.stack.size // 2
            base = thread.stack.end - frame
            ops = TraceBuilder()
            ops.call(frame)
            ops.extend(OpKind.WRITE, base + rng.integers(0, frame // 8, size=500) * 8, 8)
            core.queue[slot] = (thread, ops.to_array(), 0)
    return sim


def main() -> None:
    single = build(num_cores=1)
    s1 = single.run()
    dual = build(num_cores=2)
    s2 = dual.run()

    print("four persistent threads, 500 stack writes each")
    print(f"1 core : wall={s1.wall_cycles:>9} cycles  "
          f"checkpoints={s1.checkpoints}  switches={s1.switches}")
    print(f"2 cores: wall={s2.wall_cycles:>9} cycles  "
          f"checkpoints={s2.checkpoints}  switches={s2.switches}")
    print(f"speedup from the second core: {s1.wall_cycles / s2.wall_cycles:.2f}x")

    # Crash the dual-core run and recover everything.
    expected = {t.tid: t.registers.op_index for t in dual.process.iter_threads()}
    dual.crash()
    report = dual.recover()
    restored = {t.tid: t.registers.op_index for t in dual.process.iter_threads()}
    print(f"\ncrash + recovery: resumed from checkpoint "
          f"{report.resumed_from_sequence}")
    for tid in sorted(expected):
        marker = "ok" if expected[tid] == restored[tid] else "MISMATCH"
        print(f"  thread {tid}: op {restored[tid]} / {expected[tid]} [{marker}]")
    assert expected == restored


if __name__ == "__main__":
    main()
