"""End-to-end multithreaded simulation: threads, quanta, checkpoints.

Combines the substrate pieces into the full system of Section III-C: a
process with several persistent threads time-shared on one logical CPU.
The simulation interleaves each thread's trace in scheduler quanta; on
every switch the scheduler saves/restores the Prosper tracker state, and a
periodic checkpoint captures every thread's registers plus the dirty stack
data its bitmap accumulated.

This is the one-core case of :class:`repro.kernel.multicore.KernelMachine`,
which supplies the interpreter, the quiesce-then-checkpoint step and the
crash/recovery path; this module adds only the run loop (checkpoint every
N quanta, stop mid-run, resume after recovery) and cycle-exact stats.  It
is the layer the two-thread context-switch study runs on, and it is
exercised directly by the integration tests (all threads' modifications
must survive a crash regardless of how the scheduler interleaved them).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.config import SystemConfig
from repro.faults.injector import FaultInjector
from repro.kernel.multicore import KernelMachine


@dataclass
class SimulationStats:
    """Accounting of one multithreaded run."""

    ops_executed: int = 0
    cycles: int = 0
    switches: int = 0
    checkpoints: int = 0
    checkpoint_cycles: int = 0
    per_thread_ops: dict[int, int] = field(default_factory=dict)


class MultiThreadSimulation(KernelMachine):
    """Round-robin execution of per-thread traces with Prosper persistence."""

    def __init__(
        self,
        thread_ops: Sequence,
        stack_bytes: int = 512 * 1024,
        quantum_ops: int = 500,
        checkpoint_every_quanta: int = 10,
        config: SystemConfig | None = None,
        injector: FaultInjector | None = None,
    ) -> None:
        super().__init__(
            thread_ops,
            1,
            stack_bytes,
            quantum_ops,
            checkpoint_every_quanta,
            config,
            injector,
        )
        core = self.cores[0]
        self.hierarchy = core.hierarchy
        self.tracker = core.tracker
        self.scheduler = core.scheduler
        self.stats = SimulationStats()

    def run(self, stop_after_quanta: int | None = None) -> SimulationStats:
        """Run every thread's trace to completion, checkpointing as we go.

        *stop_after_quanta* halts execution early (mid-run), which the
        crash/resume tests use to inject failures at arbitrary points.
        """
        core = self.cores[0]
        quanta = 0
        while core.has_work():
            for slot, (thread, ops, cursor) in enumerate(core.queue):
                if cursor >= len(ops):
                    continue
                self.stats.cycles += self._run_quantum(core, slot)
                self.stats.per_thread_ops[thread.tid] = thread.registers.op_index
                self.hierarchy.now = self.stats.cycles
                quanta += 1
                if quanta % self.checkpoint_every == 0:
                    self._checkpoint_and_count()
                if stop_after_quanta is not None and quanta >= stop_after_quanta:
                    return self.stats
        self._checkpoint_and_count()
        return self.stats

    def _checkpoint_and_count(self) -> None:
        cycles = self._checkpoint()
        self.stats.checkpoint_cycles += cycles
        self.stats.cycles += cycles

    def resume(self) -> SimulationStats:
        """Continue execution after :meth:`recover`.

        Each thread's trace cursor is rewound to the op index its restored
        registers carry — exactly where the last committed checkpoint saw
        it — and execution proceeds to completion.  Work done after that
        checkpoint is re-executed, which is the checkpoint-resume semantics
        the paper validates by killing and restarting gem5.
        """
        queue = self.cores[0].queue
        for slot, (thread, ops, _cursor) in enumerate(queue):
            queue[slot] = (thread, ops, thread.registers.op_index)
        # The crash wiped the tracker: the next switch reprograms it.
        self.scheduler.current = None
        return self.run()
