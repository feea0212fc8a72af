"""Periodic whole-process checkpointing (the GemOS baseline of Section III-D),
and the crash and recovery of the checkpointed process.

The checkpoint manager captures, every interval, all process state needed to
resume after a crash:

* per-thread **register files** (including SP and the op index, our program
  counter surrogate);
* per-thread **stack images**, via whichever dirty-tracking mechanism the
  process is configured with (Prosper sub-page runs or page-granularity
  dirty bits) — incremental: only dirtied data is copied;
* process **metadata** (thread list, layout) as a small fixed-cost record,
  protected by a CRC32 so a torn NVM write is detected at recovery.

Each checkpoint is written to NVM using the two-step staging/commit
protocol, *process-wide*: every thread's dirty runs are staged first, then
a single commit flag flips, then the staged data is applied to each
thread's persistent stack.  A crash at any point therefore leaves either
the previous or the new checkpoint fully intact across **all** threads —
never a mix.

The manager also owns the crash model and the recovery path.  The paper
validates correctness by killing gem5 while an application runs inside
GemOS, restarting, and observing the process resume from its last
checkpoint.  Here :meth:`CheckpointManager.crash` discards everything
volatile — registers, DRAM stack contents, tracker state — and keeps only
what lives in NVM: the checkpoint records, the staging buffers and the
persistent stack images.  :meth:`CheckpointManager.recover` then applies
one roll-forward rule and restores registers and stack contents from the
newest committed checkpoint.  :mod:`repro.faults.fuzzer` crashes at every
step and checks exactly that invariant.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import partial

from repro.core.bitmap import DirtyRun
from repro.core.checkpoint import ProsperCheckpointEngine, read_run, write_run
from repro.core.tracker import ProsperTracker
from repro.cpu.registers import RegisterFile
from repro.faults.injector import COMMIT_FLAG_WRITE, METADATA_WRITE, FaultInjector
from repro.kernel.process import Process, Thread
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.image import ByteImage

#: Fixed cost of capturing non-memory state (registers, fds, metadata).
METADATA_CAPTURE_CYCLES = 800
#: Bytes of the metadata record persisted per checkpoint.
METADATA_BYTES = 512

#: XOR mask applied to a stored metadata CRC to model a torn NVM write of
#: the metadata record (silent at write time, caught at recovery).
TORN_METADATA_MASK = 0x5A5A_5A5A


@dataclass
class ThreadSnapshot:
    """Persistent record of one thread at a checkpoint."""

    tid: int
    registers: RegisterFile
    dirty_runs: list[DirtyRun] = field(default_factory=list)
    copied_bytes: int = 0


@dataclass
class ProcessCheckpoint:
    """One process checkpoint record in NVM (committed once the flag flips)."""

    sequence: int
    threads: list[ThreadSnapshot]
    committed: bool = False
    #: CRC32 over the metadata record as stored in NVM; None means the
    #: crash happened before the metadata write finished.
    metadata_crc: int | None = None
    #: NVM write retries spent on this checkpoint's traffic (media errors).
    retries: int = 0

    @property
    def total_bytes(self) -> int:
        return METADATA_BYTES + sum(t.copied_bytes for t in self.threads)

    def verify_metadata(self) -> bool:
        """Recompute the metadata CRC and compare with the stored one."""
        if self.metadata_crc is None:
            return False
        return self.metadata_crc == _metadata_crc(self)

    # Persist-order callbacks: the write never reached the media, or was
    # cut mid-flight.
    def lose_metadata(self) -> None:
        self.metadata_crc = None

    def tear_metadata(self) -> None:
        if self.metadata_crc is not None:
            self.metadata_crc ^= TORN_METADATA_MASK

    def lose_commit_flag(self) -> None:
        self.committed = False


@dataclass
class RecoveryReport:
    """Outcome of one crash/recover cycle."""

    resumed_from_sequence: int | None
    rolled_forward: bool
    threads_restored: int

    @property
    def recovered(self) -> bool:
        return self.resumed_from_sequence is not None


def _metadata_crc(record: ProcessCheckpoint) -> int:
    """CRC32 over the recovery-critical metadata: sequence + register files."""
    payload = repr(
        (
            record.sequence,
            [
                (
                    snap.tid,
                    snap.registers.stack_pointer,
                    snap.registers.op_index,
                    tuple(snap.registers.gprs),
                )
                for snap in record.threads
            ],
        )
    )
    return zlib.crc32(payload.encode())


class CheckpointManager:
    """Drives periodic checkpoints of one process."""

    def __init__(
        self,
        process: Process,
        hierarchy: MemoryHierarchy,
        tracker: ProsperTracker | None = None,
        injector: FaultInjector | None = None,
        dram_images: dict[int, ByteImage] | None = None,
        nvm_images: dict[int, ByteImage] | None = None,
    ) -> None:
        self.process = process
        self.hierarchy = hierarchy
        self.tracker = tracker
        self.injector = injector
        #: Optional actual stack contents (per tid); when provided, staged
        #: runs carry real payloads (checksummed) and commits apply them to
        #: the persistent NVM image.
        self.dram_images = dram_images
        self.nvm_images = nvm_images
        self.checkpoints: list[ProcessCheckpoint] = []
        self._engines: dict[int, ProsperCheckpointEngine] = {}
        self._sequence = 0
        #: Recovery accounting: staged buffers discarded as incomplete or
        #: checksum-failed, and the interval indices they belonged to.
        self.discarded_staged = 0
        self.discarded_intervals: set[int] = set()
        #: Set by :meth:`crash`, cleared by :meth:`recover`.
        self.crashed = False

    def _reached(self, point: str) -> None:
        if self.injector is not None:
            self.injector.reached(point)

    def _order_oracle(self):
        """The persist-order oracle on the NVM device, if attached."""
        nvm = self.hierarchy.nvm
        return nvm.order_oracle if nvm is not None else None

    def _walk_bound(self, thread: Thread) -> int:
        """Lowest address whose bitmap words the OS must inspect/clear.

        Combines the thread's SP with the tracker's lowest dirty address —
        taken from the live tracker when the thread is current, or from the
        tracker state saved at its last context switch (Section III-C).
        The bound must cover dead frames too, so stale dirty bits below the
        final SP are cleared rather than leaking into later checkpoints.
        """
        candidates = [thread.registers.stack_pointer]
        if self.tracker is not None and self.tracker.bitmap is thread.bitmap:
            if self.tracker.min_dirty_address is not None:
                candidates.append(self.tracker.min_dirty_address)
        elif thread.tracker_state is not None and thread.tracker_state.min_dirty_address:
            candidates.append(thread.tracker_state.min_dirty_address)
        return max(thread.stack.start, min(candidates))

    def _engine_for(self, thread: Thread) -> ProsperCheckpointEngine | None:
        if thread.bitmap is None or self.tracker is None:
            return None
        engine = self._engines.get(thread.tid)
        if engine is None:
            dram = (self.dram_images or {}).get(thread.tid)
            nvm = (self.nvm_images or {}).get(thread.tid)
            engine = ProsperCheckpointEngine(
                self.tracker,
                thread.bitmap,
                self.hierarchy,
                injector=self.injector,
                content_reader=partial(read_run, dram) if dram is not None else None,
                content_writer=partial(write_run, nvm) if nvm is not None else None,
                # Per-thread namespace: several engines share one NVM
                # device, and persist-order labels must not collide when
                # two threads stage the same checkpoint sequence.
                label_prefix=f"t{thread.tid}.ckpt",
            )
            self._engines[thread.tid] = engine
        return engine

    def checkpoint_process(self) -> tuple[ProcessCheckpoint, int]:
        """Capture one full process checkpoint; returns (record, cycles).

        Protocol order (each step a named crash point):

        1. metadata record (register files + CRC) written to NVM;
        2. every thread's dirty runs staged — no persistent stack touched;
        3. the commit flag flips (an 8-byte ordered NVM write);
        4. staged runs applied to each thread's persistent stack;
        5. consumed bitmap words cleared.

        A :class:`CrashInjected` raised by an armed injector leaves the
        record exactly as durably written so far (the partial record stays
        in :attr:`checkpoints`, as it would in NVM).
        """
        record = ProcessCheckpoint(self._sequence, [])
        self.checkpoints.append(record)
        self._sequence += 1

        cycles = METADATA_CAPTURE_CYCLES
        for thread in self.process.iter_threads():
            record.threads.append(
                ThreadSnapshot(thread.tid, thread.registers.snapshot())
            )
        self._reached(METADATA_WRITE)
        metadata = self.hierarchy.reliable_copy_to_nvm(
            self.hierarchy.dram, METADATA_BYTES
        )
        cycles += metadata.cycles
        record.retries += metadata.retries
        record.metadata_crc = _metadata_crc(record)
        torn = metadata.torn or (
            self.injector is not None
            and self.injector.should_tear_metadata(record.sequence)
        )
        if torn:
            record.tear_metadata()
        oracle = self._order_oracle()
        if oracle is not None:
            oracle.record(
                f"proc[{record.sequence}].metadata",
                undo=record.lose_metadata,
                tear=record.tear_metadata,
                size=METADATA_BYTES,
            )

        # Step 2 — stage every tracked thread before committing anything.
        engines: list[ProsperCheckpointEngine] = []
        snapshots = {snap.tid: snap for snap in record.threads}
        for thread in self.process.iter_threads():
            engine = self._engine_for(thread)
            if engine is None:
                continue
            stage = engine.stage(
                record.sequence,
                active_low_hint=self._walk_bound(thread),
                final_sp=thread.registers.stack_pointer,
            )
            snap = snapshots[thread.tid]
            snap.copied_bytes = stage.copied_bytes
            staged = engine.staging.staged
            snap.dirty_runs = staged.runs if staged is not None else []
            cycles += stage.cycles
            record.retries += stage.retries
            engines.append(engine)

        # Persist-order discipline: the metadata record and every thread's
        # staged runs must be guaranteed durable *before* the commit flag
        # can flip — otherwise a power failure could persist the flag while
        # the data it vouches for is still sitting in the write queue, and
        # recovery would roll forward a checkpoint that never fully landed.
        cycles += self.hierarchy.persist_barrier()

        # Step 3 — flip the commit record (a small ordered NVM write).
        self._reached(COMMIT_FLAG_WRITE)
        if self.hierarchy.nvm is not None:
            cycles += self.hierarchy.nvm.write(8, self.hierarchy.now)
        record.committed = True
        oracle = self._order_oracle()
        if oracle is not None:
            oracle.record(
                f"proc[{record.sequence}].commit",
                undo=record.lose_commit_flag,
                size=8,
            )
        if self.hierarchy.nvm is not None:
            # The flag is explicitly ordered: write + sfence, so it is
            # durable before the staged data is applied in step 4.
            cycles += self.hierarchy.persist_barrier()

        # Steps 4–5 — apply staged runs to the persistent stacks, clear
        # consumed bitmap words.  The flag already flipped: a crash in here
        # is recovered by replaying the staged buffers.
        for engine in engines:
            cycles += engine.commit_staged()
            cycles += engine.finish_interval()
        return record, cycles

    @property
    def last_committed(self) -> ProcessCheckpoint | None:
        for record in reversed(self.checkpoints):
            if record.committed:
                return record
        return None

    # ------------------------------------------------------------------ #
    # Crash / recovery
    # ------------------------------------------------------------------ #

    def crash(self) -> None:
        """Power failure: drop all volatile state.

        Register files are zeroed, dirty bitmaps cleared, tracker state
        dropped and the DRAM stack images emptied — they lived in DRAM or
        in the core.  The checkpoint records, the staging buffers and the
        persistent NVM images survive.  Which writes still pending behind
        the last persist barrier landed is decided before this, by the
        crash checker's persist plan (:mod:`repro.faults.fuzzer`).
        """
        self.crashed = True
        for thread in self.process.iter_threads():
            thread.registers.stack_pointer = 0
            thread.registers.op_index = 0
            thread.registers.gprs = [0] * len(thread.registers.gprs)
            if thread.bitmap is not None:
                thread.bitmap.clear()
            thread.tracker_state = None
        if self.dram_images is not None:
            for image in self.dram_images.values():
                image.clear()

    def recover(self) -> RecoveryReport:
        """Restart after :meth:`crash` and resume from the best checkpoint.

        One rule decides what survives.  The per-thread stagings still
        pending (staged, not yet applied) roll forward together or not at
        all.  They roll forward when every one is complete and
        checksum-clean, and the checkpoint each belongs to either flipped
        its commit flag, or has a clean metadata CRC and a complete staging
        on every tracked thread.  Rolling forward applies them and marks
        that checkpoint committed in the same step.  Anything less
        discards them all: rolling one thread forward while another falls
        back would blend two epochs.

        The newest committed checkpoint then wins.  Each thread's registers
        come back from it, and its DRAM stack image is refilled from its
        persistent NVM image.  With nothing committed, every thread
        restarts from its pristine state (empty stack, first op).
        """
        if not self.crashed:
            raise RuntimeError("recover() called without a crash")
        self.crashed = False
        pending = [
            engine for engine in self._engines.values()
            if engine.staging.staged is not None
            and not engine.staging.staged.committed
        ]
        # Records are numbered by their position in self.checkpoints.
        sequences = {engine.staging.staged.interval_index for engine in pending}
        # Each tracked thread's newest staging (None: it never staged).
        newest = [
            self._engines[thread.tid].staging.staged
            if thread.tid in self._engines else None
            for thread in self.process.iter_threads()
            if thread.bitmap is not None
        ]
        valid = all(engine.staging.can_roll_forward() for engine in pending)
        for sequence in sequences:
            record = self.checkpoints[sequence]
            covered = bool(newest) and all(
                staged is not None
                and staged.interval_index == sequence
                and staged.complete
                for staged in newest
            )
            valid = valid and (
                record.committed or (record.verify_metadata() and covered)
            )
        rolled = bool(pending) and valid
        if rolled:
            for engine in pending:
                engine.commit_staged()
            for sequence in sequences:
                self.checkpoints[sequence].committed = True
        elif pending:
            self.discarded_intervals.update(sequences)
            for engine in pending:
                engine.staging.discard()
            self.discarded_staged += len(pending)

        candidate = self.last_committed
        if candidate is None:
            for thread in self.process.iter_threads():
                thread.registers.restore(
                    RegisterFile(stack_pointer=thread.stack.end)
                )
            return RecoveryReport(None, rolled, 0)
        restored = 0
        for snap in candidate.threads:
            thread = self.process.threads.get(snap.tid)
            if thread is None:
                continue
            thread.registers.restore(snap.registers)
            if self.dram_images is not None and self.nvm_images is not None:
                source = self.nvm_images.get(snap.tid)
                target = self.dram_images.get(snap.tid)
                if source is not None and target is not None:
                    target.copy_range_from(source, thread.stack)
            restored += 1
        return RecoveryReport(candidate.sequence, rolled, restored)
