"""The kernel machine: per-core Prosper trackers over one checkpointed process.

Section III-C: "Prosper's per hardware thread dirty tracker can track the
stack modifications of software threads and set bit(s) in the dedicated
bitmap areas."  :class:`KernelMachine` models that machine once: a process
of persistent threads distributed over M cores, each core with its own
:class:`~repro.core.tracker.ProsperTracker`, scheduler and private cache
hierarchy; one quantum interpreter (stack stores feed the running core's
tracker, stores into another thread's live stack take the OS fault path
into the victim's bitmap); one stop-the-world quiesce-then-checkpoint step
through a shared checkpoint manager; and one crash/recover path.

The run loops are the only per-simulation code.  :class:`MultiCoreSimulation`
(here) runs every core one round at a time, advancing wall-clock time as the
maximum over cores between barriers, and checkpoints every N rounds.  The
one-core machine with a checkpoint every N quanta, stop/resume support and
cycle-exact stats is :class:`repro.kernel.simulation.MultiThreadSimulation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import SystemConfig, setup_i
from repro.core.tracker import ProsperTracker
from repro.cpu.ops import Op, OpKind
from repro.faults.injector import BARRIER_QUIESCE, FaultInjector
from repro.kernel.checkpoint_mgr import CheckpointManager
from repro.kernel.process import Process, Thread
from repro.kernel.restore import CrashSimulator, RecoveryReport
from repro.kernel.scheduler import Scheduler
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.image import ByteImage

#: Cycles the OS write-fault path spends recording a store into another
#: thread's stack in the victim's bitmap (Section III-C page permissions).
CROSS_THREAD_FAULT_CYCLES = 2500


@dataclass
class CoreState:
    """One logical CPU: its tracker, scheduler, run queue, and clock."""

    index: int
    tracker: ProsperTracker
    scheduler: Scheduler
    hierarchy: MemoryHierarchy
    #: (thread, ops, cursor) tuples assigned to this core.
    queue: list[tuple[Thread, list[Op], int]] = field(default_factory=list)
    clock: int = 0

    def has_work(self) -> bool:
        return any(cursor < len(ops) for _, ops, cursor in self.queue)


@dataclass
class MultiCoreStats:
    ops_executed: int = 0
    #: Wall-clock cycles: max core clock at every barrier, summed.
    wall_cycles: int = 0
    #: Sum of all cores' busy cycles (for utilization).
    busy_cycles: int = 0
    checkpoints: int = 0
    switches: int = 0

    @property
    def utilization(self) -> float:
        if self.wall_cycles == 0:
            return 0.0
        return self.busy_cycles / self.wall_cycles


class KernelMachine:
    """Persistent threads on per-core trackers, checkpointed process-wide.

    Subclasses own the run loop and the stats object; ``self.stats`` must
    carry ``ops_executed``, ``switches`` and ``checkpoints`` counters.
    """

    def __init__(
        self,
        thread_ops: list[list[Op]],
        num_cores: int,
        stack_bytes: int,
        quantum_ops: int,
        checkpoint_every: int,
        config: SystemConfig | None,
        injector: FaultInjector | None,
    ) -> None:
        if not thread_ops:
            raise ValueError("need at least one thread")
        if num_cores <= 0:
            raise ValueError("need at least one core")
        if quantum_ops <= 0 or checkpoint_every <= 0:
            raise ValueError("quantum and checkpoint period must be positive")
        self.config = config or setup_i()
        self.process = Process(name="sim")
        self.quantum_ops = quantum_ops
        self.checkpoint_every = checkpoint_every
        self.injector = injector

        # Checkpoints target one NVM device: each core gets its own
        # hierarchy front-end (private caches) but the checkpoint manager
        # uses core 0's.
        self.cores: list[CoreState] = []
        for index in range(num_cores):
            tracker = ProsperTracker(self.process.tracker_config)
            self.cores.append(
                CoreState(
                    index=index,
                    tracker=tracker,
                    scheduler=Scheduler(tracker, injector=injector),
                    hierarchy=MemoryHierarchy(self.config),
                )
            )
        #: Actual stack contents: volatile DRAM image + persistent NVM
        #: image per thread, used to validate data integrity across crashes.
        self.dram_images: dict[int, ByteImage] = {}
        self.nvm_images: dict[int, ByteImage] = {}
        self.manager = CheckpointManager(
            self.process,
            self.cores[0].hierarchy,
            self.cores[0].tracker,
            injector=injector,
            dram_images=self.dram_images,
            nvm_images=self.nvm_images,
        )
        self.crash_sim = CrashSimulator(
            self.process,
            self.manager,
            dram_images=self.dram_images,
            nvm_images=self.nvm_images,
        )

        for i, ops in enumerate(thread_ops):
            thread = self.process.spawn_thread(stack_bytes, persistent=True)
            self.cores[i % num_cores].queue.append((thread, ops, 0))
            self.dram_images[thread.tid] = ByteImage()
            self.nvm_images[thread.tid] = ByteImage()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _run_quantum(self, core: CoreState, slot: int) -> int:
        """Switch *core* to the thread in queue *slot* and run one quantum.

        Returns the cycles spent, context switch included, and advances the
        thread's cursor.
        """
        thread, ops, cursor = core.queue[slot]
        end = min(cursor + self.quantum_ops, len(ops))
        cycles = core.scheduler.switch_to(thread)
        self.stats.switches += 1
        hierarchy = core.hierarchy
        tracker = core.tracker
        image = self.dram_images[thread.tid]
        regs = thread.registers
        for op in ops[cursor:end]:
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

    def _checkpoint(self) -> int:
        """Stop-the-world checkpoint; returns the cycles it cost.

        Every core's tracker is quiesced first so the bitmap of the thread
        it runs is complete before the manager walks it.  The manager
        stages each thread's dirty runs (with real contents, checksummed)
        and applies them to the persistent NVM images at commit — the data
        that survives a power failure.
        """
        for core in self.cores:
            current = core.scheduler.current
            if current is not None and current.persistent:
                if self.injector is not None:
                    self.injector.reached(BARRIER_QUIESCE)
                core.tracker.request_flush()
                core.tracker.poll_quiescent()
        _record, cycles = self.manager.checkpoint_process()
        self.stats.checkpoints += 1
        return cycles

    # ------------------------------------------------------------------ #
    # Crash / recovery
    # ------------------------------------------------------------------ #

    def crash(self) -> None:
        """Power failure: volatile state (registers, DRAM images) vanishes."""
        self.crash_sim.crash()

    def recover(self) -> RecoveryReport:
        """Restart: registers restore from the last committed checkpoint and
        each thread's DRAM stack image is repopulated from its persistent
        NVM image (both handled by the crash simulator)."""
        return self.crash_sim.recover()

    def verify_recovered_contents(self) -> bool:
        """Check every thread's restored stack equals its persistent image."""
        return all(
            self.dram_images[t.tid].equals_in_range(
                self.nvm_images[t.tid], t.stack
            )
            for t in self.process.iter_threads()
        )


class MultiCoreSimulation(KernelMachine):
    """Threads distributed round-robin over cores, checkpointed globally."""

    def __init__(
        self,
        thread_ops: list[list[Op]],
        num_cores: int = 2,
        stack_bytes: int = 512 * 1024,
        quantum_ops: int = 500,
        checkpoint_every_rounds: int = 5,
        config: SystemConfig | None = None,
        injector: FaultInjector | None = None,
    ) -> None:
        super().__init__(
            thread_ops,
            num_cores,
            stack_bytes,
            quantum_ops,
            checkpoint_every_rounds,
            config,
            injector,
        )
        self.stats = MultiCoreStats()

    def run(self) -> MultiCoreStats:
        rounds = 0
        while any(core.has_work() for core in self.cores):
            for core in self.cores:
                # Give each runnable thread on the core one quantum.
                for slot, (_thread, ops, cursor) in enumerate(core.queue):
                    if cursor < len(ops):
                        core.clock += self._run_quantum(core, slot)
            rounds += 1
            # Barrier: wall clock advances to the slowest core.
            barrier = max(core.clock for core in self.cores)
            for core in self.cores:
                self.stats.busy_cycles += core.clock
                core.clock = 0
            self.stats.wall_cycles += barrier
            if rounds % self.checkpoint_every == 0:
                self.stats.wall_cycles += self._checkpoint()
        self.stats.wall_cycles += self._checkpoint()
        return self.stats
