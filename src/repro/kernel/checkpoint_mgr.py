"""Periodic whole-process checkpointing (the GemOS baseline of Section III-D).

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
never a mix.  :mod:`repro.kernel.restore` consumes the records produced
here; :mod:`repro.faults.fuzzer` crashes at every step and checks exactly
that invariant.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro.core.bitmap import DirtyRun
from repro.core.checkpoint import ProsperCheckpointEngine, StagedRun
from repro.core.tracker import ProsperTracker
from repro.cpu.registers import RegisterFile
from repro.faults.injector import COMMIT_FLAG_WRITE, METADATA_WRITE, FaultInjector
from repro.kernel.process import Process, Thread
from repro.memory.address import AddressRange
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
    #: Whether every planned run reached the staging buffer (written as part
    #: of the staging descriptor; recovery must not trust a False one).
    staged_complete: bool = True


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


def _safe_verify(staged) -> bool:
    """Checksum a staging buffer, treating a record so mangled that the
    verify itself fails as a failed checksum (recovery must degrade to
    the previous checkpoint, never crash)."""
    try:
        return staged.verify()
    except Exception:
        return False


def _lose_metadata(record: "ProcessCheckpoint"):
    """Persist-order undo: the metadata record never reached the media."""

    def undo() -> None:
        record.metadata_crc = None

    return undo


def _tear_metadata(record: "ProcessCheckpoint"):
    """Persist-order tear: the metadata line was cut mid-flight."""

    def tear() -> None:
        if record.metadata_crc is not None:
            record.metadata_crc ^= TORN_METADATA_MASK

    return tear


def _lose_commit_flag(record: "ProcessCheckpoint"):
    """Persist-order undo: the commit flag never flipped in NVM."""

    def undo() -> None:
        record.committed = False

    return undo


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
            reader = self._content_reader(thread.tid)
            writer = self._content_writer(thread.tid)
            engine = ProsperCheckpointEngine(
                self.tracker,
                thread.bitmap,
                self.hierarchy,
                injector=self.injector,
                content_reader=reader,
                content_writer=writer,
                # Per-thread namespace: several engines share one NVM
                # device, and persist-order labels must not collide when
                # two threads stage the same checkpoint sequence.
                label_prefix=f"t{thread.tid}.ckpt",
            )
            self._engines[thread.tid] = engine
        return engine

    def _content_reader(self, tid: int):
        if self.dram_images is None:
            return None
        images = self.dram_images

        def reader(run: DirtyRun):
            image = images.get(tid)
            if image is None:
                return ()
            return image.words_in_range(AddressRange(run.start, run.end))

        return reader

    def _content_writer(self, tid: int):
        if self.nvm_images is None:
            return None
        images = self.nvm_images

        def writer(staged_run: StagedRun) -> None:
            image = images.get(tid)
            if image is None:
                return
            image.replace_range(
                AddressRange(staged_run.run.start, staged_run.run.end),
                staged_run.payload,
            )

        return writer

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
        metadata = self.hierarchy.reliable_copy_dram_to_nvm(METADATA_BYTES)
        cycles += metadata.cycles
        record.retries += metadata.retries
        record.metadata_crc = _metadata_crc(record)
        torn = metadata.torn or (
            self.injector is not None
            and self.injector.should_tear_metadata(record.sequence)
        )
        if torn:
            record.metadata_crc ^= TORN_METADATA_MASK
        oracle = self._order_oracle()
        if oracle is not None:
            oracle.record(
                f"proc[{record.sequence}].metadata",
                undo=_lose_metadata(record),
                tear=_tear_metadata(record),
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
            snap.staged_complete = staged.complete if staged is not None else False
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
                undo=_lose_commit_flag(record),
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

    def _record_for(self, sequence: int) -> ProcessCheckpoint | None:
        for record in reversed(self.checkpoints):
            if record.sequence == sequence:
                return record
        return None

    def _staged_covers(self, sequence: int) -> bool:
        """True when every tracked thread holds a complete staging for
        *sequence* (committed or not) — the process-level completeness test
        recovery applies before rolling anything forward."""
        found = False
        for thread in self.process.iter_threads():
            engine = self._engine_for(thread)
            if engine is None:
                continue
            found = True
            staged = engine.staging.staged
            if (
                staged is None
                or staged.interval_index != sequence
                or not staged.complete
            ):
                return False
        return found

    def staging_complete_for(self, record: ProcessCheckpoint) -> bool:
        """True when every tracked thread's staging for *record* has been
        applied — the promotion test after :meth:`complete_staged_commits`."""
        found = False
        for thread in self.process.iter_threads():
            engine = self._engine_for(thread)
            if engine is None:
                continue
            found = True
            staged = engine.staging.staged
            if (
                staged is None
                or staged.interval_index != record.sequence
                or not staged.committed
            ):
                return False
        return found

    def complete_staged_commits(self) -> int:
        """Recovery helper: finish any staged-but-uncommitted thread commits.

        All-or-nothing across the process: the pending staged buffers are
        applied only if **every** one passes its checksums, the owning
        record's metadata verifies (unless the commit flag already flipped,
        which is authoritative), and every tracked thread staged the same
        interval completely.  Anything less and the whole set is discarded —
        rolling one thread forward while another falls back would leave a
        blended process state.  Returns the number of thread engines whose
        staged data was applied.
        """
        pending = [
            engine
            for engine in self._engines.values()
            if engine.staging.staged is not None
            and not engine.staging.staged.committed
        ]
        if not pending:
            return 0
        stagings = [engine.staging.staged for engine in pending]
        ok = all(_safe_verify(staged) for staged in stagings)
        if ok:
            for sequence in {staged.interval_index for staged in stagings}:
                record = self._record_for(sequence)
                if record is None:
                    ok = False
                    break
                if not record.committed and not record.verify_metadata():
                    ok = False
                    break
                if not record.committed and not self._staged_covers(sequence):
                    ok = False
                    break
        if ok:
            for engine in pending:
                engine.commit_staged()
            return len(pending)
        self.discarded_intervals.update(staged.interval_index for staged in stagings)
        for engine in pending:
            engine.staging.discard()
        self.discarded_staged += len(pending)
        return 0
