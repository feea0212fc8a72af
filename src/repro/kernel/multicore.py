"""The kernel machine: per-core Prosper trackers over one checkpointed process.

Section III-C: "Prosper's per hardware thread dirty tracker can track the
stack modifications of software threads and set bit(s) in the dedicated
bitmap areas."  :class:`KernelMachine` models that machine once: a process
of persistent threads distributed over M cores, each core with its own
:class:`~repro.core.tracker.ProsperTracker`, scheduler and private cache
hierarchy; one stop-the-world quiesce-then-checkpoint step through a shared
checkpoint manager; and one crash/recover path.

There is one interpreter.  A quantum is a slice ``[cursor, end)`` of the
thread's ``TRACE_DTYPE`` array, run by the core's
:class:`~repro.cpu.engine_fast.BatchedExecutionEngine` (whose hierarchy is
the core's) with the core's tracker behind Prosper's own store path,
:class:`~repro.persistence.prosper.TrackerStores`, which batches.  What
only the kernel adds is computed per slice with numpy: the DRAM image
value of a store is ``(tid << 32) | op_index``, a pure function of its
position, and only stores into another thread's stack take the OS fault
path into the victim's bitmap.  Deferring the tracker hooks is exact
here because the kernel has no NVM-resident demand region (every demand
latency is independent of the cycle count) and tracker cost depends only
on store order.

The run loops are the only per-simulation code.  :class:`MultiCoreSimulation`
(here) runs every core one round at a time, advancing wall-clock time as the
maximum over cores between barriers, and checkpoints every N rounds.  The
one-core machine with a checkpoint every N quanta, stop/resume support and
cycle-exact stats is :class:`repro.kernel.simulation.MultiThreadSimulation`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.config import SystemConfig, setup_i
from repro.core.tracker import ProsperTracker
from repro.cpu.engine import trace_array
from repro.cpu.engine_fast import BatchedExecutionEngine
from repro.cpu.ops import OpKind
from repro.faults.injector import BARRIER_QUIESCE, FaultInjector
from repro.kernel.checkpoint_mgr import CheckpointManager, RecoveryReport
from repro.kernel.process import Process, Thread
from repro.kernel.scheduler import Scheduler
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.image import ByteImage
from repro.persistence.prosper import TrackerStores

#: Cycles the OS write-fault path spends recording a store into another
#: thread's stack in the victim's bitmap (Section III-C page permissions).
CROSS_THREAD_FAULT_CYCLES = 2500


_WRITE = int(OpKind.WRITE)


@dataclass
class CoreState:
    """One logical CPU: its tracker, scheduler, engine, run queue, and clock."""

    index: int
    tracker: ProsperTracker
    scheduler: Scheduler
    engine: BatchedExecutionEngine
    #: (thread, ops, cursor) tuples assigned to this core; ops is the
    #: thread's ``TRACE_DTYPE`` array.
    queue: list[tuple[Thread, np.ndarray, int]] = field(default_factory=list)
    clock: int = 0

    @property
    def hierarchy(self) -> MemoryHierarchy:
        return self.engine.hierarchy

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

    Each of *thread_ops* is packed once with
    :func:`~repro.cpu.engine.trace_array`, so the queues hold arrays only.
    Subclasses own the run loop and the stats object; ``self.stats`` must
    carry ``ops_executed``, ``switches`` and ``checkpoints`` counters.
    """

    def __init__(
        self,
        thread_ops: Sequence,
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
            # The engine never sees the injector: the kernel's crash points
            # are protocol steps in the scheduler and manager.
            engine = BatchedExecutionEngine(
                self.config, mechanism=TrackerStores(tracker)
            )
            self.cores.append(
                CoreState(
                    index=index,
                    tracker=tracker,
                    scheduler=Scheduler(tracker, injector=injector),
                    engine=engine,
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

        for i, ops in enumerate(thread_ops):
            thread = self.process.spawn_thread(stack_bytes, persistent=True)
            self.cores[i % num_cores].queue.append((thread, trace_array(ops), 0))
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
        cycles += self._run_slice(core, thread, ops[cursor:end])
        self.stats.ops_executed += end - cursor
        core.queue[slot] = (thread, ops, end)
        return cycles

    def _run_slice(self, core: CoreState, thread: Thread, ops: np.ndarray) -> int:
        """Run *ops* as *thread* on *core*'s engine; returns the cycles spent.

        The engine charges memory latency, compute and tracker interference;
        the DRAM images and cross-thread stack writes are applied here.
        """
        engine = core.engine
        hierarchy = engine.hierarchy
        stats = engine.stats
        regs = thread.registers
        first_index = regs.op_index
        engine.stack_range = thread.stack
        engine.registers = regs
        # Demand latencies do not depend on the cycle count, so the slice
        # runs from the kernel's clock and leaves it where it was: the
        # checkpoint path's persist barriers read it.
        now = hierarchy.now
        engine.now = now
        before = stats.app_cycles + stats.inline_cycles
        engine.run(ops)
        hierarchy.now = now
        cycles = stats.app_cycles + stats.inline_cycles - before

        positions = np.flatnonzero(ops["kind"] == _WRITE)
        if not len(positions):
            return cycles
        addresses = ops["address"][positions].astype(np.int64)
        # Deterministic content: the value derives from the writing thread
        # and its op position, so recovery checks can recompute it.
        values = (thread.tid << 32) | (first_index + positions)
        stack = thread.stack
        own = (addresses >= stack.start) & (addresses < stack.end)
        self.dram_images[thread.tid].write_array(addresses[own], values[own])
        if own.all():
            return cycles

        # Stores into another thread's stack take the OS fault path, which
        # records each in the victim's bitmap; heap stores take no fault.
        # Thread ids start at 1, so 0 marks a store with no victim.
        victim_of = np.zeros(len(addresses), dtype=np.int64)
        for victim in self.process.iter_threads():
            if victim is not thread:
                stack = victim.stack
                victim_of[(addresses >= stack.start) & (addresses < stack.end)] = victim.tid
        sizes = ops["size"][positions]
        for i in np.flatnonzero(victim_of).tolist():
            address = int(addresses[i])
            self.process.handle_cross_thread_write(thread.tid, address, int(sizes[i]))
            cycles += CROSS_THREAD_FAULT_CYCLES
            self.dram_images[int(victim_of[i])].write(address, int(values[i]))
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
        self.manager.crash()

    def recover(self) -> RecoveryReport:
        """Restart: the checkpoint manager rolls a complete staging forward
        or discards it, restores registers from the last committed
        checkpoint and repopulates each thread's DRAM stack image from its
        persistent NVM image (:meth:`CheckpointManager.recover`)."""
        return self.manager.recover()

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
        thread_ops: Sequence,
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
