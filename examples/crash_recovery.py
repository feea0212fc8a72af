#!/usr/bin/env python3
"""End-to-end process persistence: checkpoint, crash, recover.

Mirrors the paper's correctness test (Section III-D): a process runs with
periodic Prosper checkpoints, the machine "loses power" — all DRAM and CPU
state vanishes, only NVM survives — and the process resumes from its last
committed checkpoint.  A second crash is injected by a fault injector
*between* the staging and commit steps of a checkpoint, to show the
two-step protocol rolling forward.

Run:  python examples/crash_recovery.py
"""

from repro.config import setup_i
from repro.core.tracker import ProsperTracker
from repro.faults.injector import COMMIT_FLAG_WRITE, CrashInjected, FaultInjector
from repro.kernel.checkpoint_mgr import CheckpointManager
from repro.kernel.process import Process
from repro.memory.hierarchy import MemoryHierarchy


def run_some_work(proc: Process, tracker: ProsperTracker, ops: int, at: int) -> None:
    """Pretend the thread executed *ops* instructions writing its stack."""
    thread = proc.thread(1)
    for i in range(ops):
        tracker.observe_store(thread.stack.end - 64 - (i % 256) * 8, 8)
    thread.registers.op_index = at
    thread.registers.stack_pointer = thread.stack.end - 4096


def main() -> None:
    proc = Process(name="demo")
    proc.spawn_thread(stack_bytes=1 << 20, persistent=True)
    hierarchy = MemoryHierarchy(setup_i())
    tracker = ProsperTracker(proc.tracker_config)
    tracker.configure(proc.thread(1).bitmap)
    injector = FaultInjector()
    manager = CheckpointManager(proc, hierarchy, tracker, injector=injector)

    # --- interval 0: work, then a clean checkpoint ---------------------
    run_some_work(proc, tracker, ops=500, at=500)
    record, cycles = manager.checkpoint_process()
    print(f"checkpoint {record.sequence}: committed={record.committed}, "
          f"{record.total_bytes} bytes, {cycles} cycles")

    # --- crash out of nowhere ------------------------------------------
    manager.crash()
    print("\n*** power failure #1 (DRAM and registers lost) ***")
    report = manager.recover()
    print(f"recovered from checkpoint {report.resumed_from_sequence}; "
          f"thread resumes at op {proc.thread(1).registers.op_index}")
    assert proc.thread(1).registers.op_index == 500

    # --- interval 1: more work, crash mid-commit ------------------------
    tracker.configure(proc.thread(1).bitmap)
    run_some_work(proc, tracker, ops=300, at=800)
    injector.arm(COMMIT_FLAG_WRITE, occurrence=1)  # checkpoint 0 fired it once
    try:
        manager.checkpoint_process()
    except CrashInjected:
        pass
    record = manager.checkpoints[-1]
    print(f"\ncheckpoint {record.sequence}: committed={record.committed} "
          "(crashed between staging and commit)")

    manager.crash()
    print("*** power failure #2 (mid-commit) ***")
    report = manager.recover()
    print(f"rolled forward: {report.rolled_forward}; "
          f"recovered from checkpoint {report.resumed_from_sequence}; "
          f"thread resumes at op {proc.thread(1).registers.op_index}")
    assert report.rolled_forward
    assert proc.thread(1).registers.op_index == 800

    print("\nBoth recoveries resumed from a consistent state — the two-step "
          "staging/commit protocol never exposes a torn checkpoint.")


if __name__ == "__main__":
    main()
