"""Crash model and recovery path.

The paper validates correctness by killing the gem5 process while an
application runs inside GemOS, restarting, and observing the process resume
from its last checkpoint.  The equivalent here:

* :class:`CrashSimulator` discards everything volatile — CPU registers, the
  DRAM stack contents, tracker state, un-flushed cache lines — and keeps
  only what lives in NVM: committed checkpoints and, possibly, a staged but
  uncommitted one.
* :func:`recover` replays the two-step commit rule: a checkpoint whose
  staging is *actually* complete in NVM — every thread staged every planned
  run, every staged run and the metadata record pass their checksums — is
  rolled forward; anything less (a partial staging, a torn record) is
  discarded and the previous committed checkpoint wins.  Restoration covers
  both register files and the persistent stack *contents*, copied back into
  each thread's volatile DRAM image.

The recovery report states which checkpoint the process resumed from and
what state was restored, which the integration tests assert on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.registers import RegisterFile
from repro.kernel.checkpoint_mgr import CheckpointManager, ProcessCheckpoint
from repro.kernel.process import Process
from repro.memory.image import ByteImage


@dataclass
class RecoveryReport:
    """Outcome of one crash/restore cycle."""

    resumed_from_sequence: int | None
    rolled_forward: bool
    threads_restored: int

    @property
    def recovered(self) -> bool:
        return self.resumed_from_sequence is not None


class CrashSimulator:
    """Simulates a power failure over a checkpointed process."""

    def __init__(
        self,
        process: Process,
        manager: CheckpointManager,
        dram_images: dict[int, ByteImage] | None = None,
        nvm_images: dict[int, ByteImage] | None = None,
    ) -> None:
        self.process = process
        self.manager = manager
        #: Actual stack contents, when the simulation tracks them: the DRAM
        #: images die with a crash, the NVM images survive and recovery
        #: copies them back.
        self.dram_images = dram_images if dram_images is not None else manager.dram_images
        self.nvm_images = nvm_images if nvm_images is not None else manager.nvm_images
        self.crashed = False

    def crash(self) -> None:
        """Drop all volatile state.

        Register files are zeroed, dirty bitmaps cleared, and the DRAM stack
        images emptied — they lived in DRAM/core.  NVM-resident checkpoint
        records in the manager (and the persistent NVM images) survive.
        Which writes still pending behind the last persist barrier landed
        is decided before this, by the crash checker's persist plan
        (:mod:`repro.faults.fuzzer`).
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
        """Restart after a crash and resume from the best checkpoint."""
        if not self.crashed:
            raise RuntimeError("recover() called without a crash")

        # Roll forward any checkpoint that was fully staged — all-or-nothing
        # across the process, gated on the staged checksums and the owning
        # record's metadata CRC (see complete_staged_commits).
        rolled = self.manager.complete_staged_commits() > 0
        candidate: ProcessCheckpoint | None = None
        for record in reversed(self.manager.checkpoints):
            if record.committed:
                candidate = record
                break
            # A corrupt record (torn metadata, mangled staging) must
            # degrade to "previous checkpoint wins", never crash recovery.
            try:
                promotable = record.verify_metadata() and (
                    self.manager.staging_complete_for(record)
                )
            except Exception:
                promotable = False
            if promotable:
                # Every thread's staging for this record is complete in NVM
                # and has been applied: finishing the commit is safe.  A
                # record that fails either test is skipped — the previous
                # committed checkpoint wins.
                record.committed = True
                candidate = record
                break

        if candidate is None:
            # Nothing ever committed: restart every thread from its pristine
            # state (empty stack, first op) rather than the zeroed registers
            # the crash left behind.
            for thread in self.process.iter_threads():
                thread.registers.restore(
                    RegisterFile(stack_pointer=thread.stack.end)
                )
            self.crashed = False
            return RecoveryReport(None, rolled, 0)

        restored = 0
        for snap in candidate.threads:
            thread = self.process.threads.get(snap.tid)
            if thread is None:
                continue
            thread.registers.restore(snap.registers)
            # The persistent stack *contents* come back too: repopulate the
            # thread's volatile DRAM image from the NVM image the committed
            # checkpoints built up.
            if self.dram_images is not None and self.nvm_images is not None:
                source = self.nvm_images.get(snap.tid)
                target = self.dram_images.get(snap.tid)
                if source is not None and target is not None:
                    target.copy_range_from(source, thread.stack)
            restored += 1
        self.crashed = False
        return RecoveryReport(candidate.sequence, rolled, restored)
