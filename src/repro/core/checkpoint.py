"""OS-side Prosper checkpoint engine (Section III-A, Figure 5/6).

At the end of each checkpoint interval the OS:

1. requests a lookup-table flush and polls for quiescence (two-step
   protocol; between the steps it prepares for the copy);
2. inspects only the bitmap words covering the *active* stack region —
   bounded below by the tracker-reported lowest dirty address and by the
   lowest SP observed in the interval — coalescing contiguous set bits into
   runs;
3. copies each dirty run from DRAM into a staging buffer in NVM (step one
   of the crash-consistent commit), recording a CRC32 alongside each
   staged run;
4. applies the staged data onto the per-thread persistent stack in NVM
   (step two), then marks the checkpoint committed;
5. clears the consumed bitmap words so the next interval starts clean.

Crash consistency: a failure during (3) leaves the previous committed
checkpoint intact — the staging buffer records how many runs were planned,
so recovery can tell a *complete* staging (safe to roll forward) from a
partial one (discard); a failure during (4) is recovered by replaying the
fully staged buffer.  The per-run checksums let recovery detect staged
data corrupted by a torn NVM write and discard it instead of trusting
completeness alone.  The recovery path lives in
:mod:`repro.kernel.restore`.

The staging half of (3), the commit of (4) and the roll-forward rule
live in :class:`StagingBuffer`, which the page-granularity Dirtybit
baseline (:mod:`repro.persistence.dirtybit`) stages through as well; the
engine keeps only what is Prosper-specific.

Fault injection: every step is a named crash point (see
:mod:`repro.faults.injector`); an armed :class:`FaultInjector` threaded
through here raises :class:`CrashInjected` mid-protocol, leaving the
staging state exactly as durably written so far.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import partial
from types import FunctionType
from typing import Callable, Iterable

import numpy as np

from repro.core.bitmap import DirtyBitmap, DirtyRun
from repro.core.tracker import ProsperTracker
from repro.faults.injector import (
    BITMAP_CLEAR,
    PERSIST_BARRIER,
    STAGE_BEGIN,
    STAGE_COMPLETE,
    FaultInjector,
    stage_run_copy,
)
from repro.memory.hierarchy import MemoryHierarchy

#: Cycles for the OS to stream-inspect one 64-byte cache line of bitmap
#: (16 words): an 8-byte-at-a-time scan that skips zero words quickly, the
#: coalescing walk of Section III-A.
INSPECT_CYCLES_PER_LINE = 6
WORDS_PER_BITMAP_LINE = 16
#: Cycles to clear one dirty bitmap word for the next interval.
CLEAR_CYCLES_PER_WORD = 2
#: Fixed per-checkpoint software cost: flush request, poll, bookkeeping.
CHECKPOINT_FIXED_CYCLES = 400
#: Per-run software overhead of setting up one copy (pointer math, loop).
PER_RUN_SETUP_CYCLES = 30

#: XOR mask applied to a stored CRC to model a torn write corrupting a
#: staged record whose content is not byte-tracked.
TORN_CRC_MASK = 0xA5A5_A5A5

#: Reads a run's DRAM contents as (word address, value) pairs.
ContentReader = Callable[[DirtyRun], Iterable[tuple[int, int]]]
#: Applies a committed staged run to the persistent NVM contents.
ContentWriter = Callable[["StagedRun"], None]


def staged_run_crc(run: DirtyRun, payload: tuple[tuple[int, int], ...]) -> int:
    """CRC32 over a staged run's descriptor and (optional) byte contents."""
    return zlib.crc32(repr((run.start, run.end, payload)).encode())


@dataclass
class StagedRun:
    """One dirty run written to the NVM staging buffer.

    ``crc`` is stored alongside the staged data; recovery recomputes it
    over ``payload`` (the staged words, when the simulation tracks actual
    contents) and discards the run on mismatch — which is how torn NVM
    writes are detected instead of silently rolled forward.
    """

    run: DirtyRun
    crc: int
    payload: tuple[tuple[int, int], ...] = ()

    def verify(self) -> bool:
        return self.crc == staged_run_crc(self.run, self.payload)

    def __deepcopy__(self, memo: dict) -> "StagedRun":
        # The run and the payload tuple are immutable; only ``tear``
        # reassigns fields, so a shallow copy is independent.
        return StagedRun(self.run, self.crc, self.payload)

    def tear(self) -> None:
        """Silently corrupt this run, as a torn NVM write would."""
        if self.payload:
            address, value = self.payload[-1]
            self.payload = self.payload[:-1] + (
                (address, value ^ (TORN_CRC_MASK << 16 | TORN_CRC_MASK)),
            )
        else:
            self.crc ^= TORN_CRC_MASK


@dataclass
class CheckpointResult:
    """Outcome of one stack checkpoint."""

    interval_index: int
    copied_bytes: int
    runs: int
    words_inspected: int
    cycles: int
    #: NVM write retries taken by the reliable-write path (media errors);
    #: their backoff cycles are already included in ``cycles``.
    retries: int = 0


@dataclass
class StageResult:
    """Outcome of the staging half of a checkpoint (step one)."""

    cycles: int
    copied_bytes: int
    runs: int
    words_inspected: int
    retries: int = 0


@dataclass
class StagedCheckpoint:
    """NVM staging-buffer contents awaiting (or after) commit.

    ``expected_runs`` is written first (part of the staging descriptor), so
    recovery can distinguish a complete staging — every planned run made it
    to NVM — from one interrupted mid-copy.  Only a complete, checksum-clean
    staging may be rolled forward.
    """

    interval_index: int
    expected_runs: int = 0
    staged_runs: list[StagedRun] = field(default_factory=list)
    committed: bool = False
    #: Walk bound saved for the deferred bitmap clear at commit time.
    active_low: int | None = None
    #: Set when the persist-order model drops the staging descriptor: the
    #: run count never landed, so recovery cannot tell complete from
    #: partial and must discard.
    descriptor_lost: bool = False

    @property
    def runs(self) -> list[DirtyRun]:
        """Byte ranges staged so far (compatibility accessor)."""
        return [staged.run for staged in self.staged_runs]

    @property
    def complete(self) -> bool:
        """True when every planned run reached the staging buffer."""
        if self.descriptor_lost:
            return False
        return len(self.staged_runs) == self.expected_runs

    def verify(self) -> bool:
        """Complete *and* every staged run passes its checksum."""
        return self.complete and all(s.verify() for s in self.staged_runs)

    # Persist-order undo callbacks: the write never reached the media.
    def lose_descriptor(self) -> None:
        self.descriptor_lost = True

    def lose_run(self, staged_run: StagedRun) -> None:
        self.staged_runs = [s for s in self.staged_runs if s is not staged_run]


class StagingBuffer:
    """The NVM staging buffer and its two-step commit (Section III-D).

    Owns the protocol both content mechanisms share: stage every dirty run
    behind a descriptor (step one), then make the staging durable and flip
    the commit marker (step two).  Each durable write is recorded with the
    persist-order oracle on the NVM device, if one is attached, under
    ``<label_prefix>[k].descriptor``, ``.stage_run[i]`` and ``.commit``;
    recovery (:meth:`recover`) rolls forward only a complete,
    checksum-clean staging.  Callers reach ``STAGE_COMPLETE`` themselves,
    around their own copy costs.
    """

    def __init__(
        self,
        hierarchy: MemoryHierarchy,
        injector: FaultInjector | None = None,
        label_prefix: str = "ckpt",
        content_reader: ContentReader | None = None,
        content_writer: ContentWriter | None = None,
    ) -> None:
        self.hierarchy = hierarchy
        self.injector = injector
        #: Namespace for persist-order labels.  Callers owning several
        #: buffers against one NVM device (the kernel manager's per-thread
        #: engines) must make it unique per buffer, or concurrent stagings
        #: of the same interval would collide in the oracle's pending set.
        self.label_prefix = label_prefix
        #: Optional actual-contents hooks: when set, staged runs carry real
        #: checksummed payloads and commits apply them to a persistent
        #: image.  None stages empty payloads (the timing-only model).
        self.content_reader = content_reader
        self.content_writer = content_writer
        self.last_committed_interval: int | None = None
        self.staged: StagedCheckpoint | None = None
        #: TEST-ONLY protocol mutant: recovery trusts staging completeness
        #: without re-checking the per-run CRCs.  A torn staged tail then
        #: rolls forward silently — exactly the class of bug the persist-
        #: order fuzzer exists to catch.  Never set outside tests.
        self.unsafe_trust_completeness = False

    def reached(self, point: str) -> None:
        """Fire the named crash point on the attached injector, if any."""
        if self.injector is not None:
            self.injector.reached(point)

    def _oracle(self):
        """The persist-order oracle on the NVM device, if one is attached."""
        nvm = self.hierarchy.nvm
        return nvm.order_oracle if nvm is not None else None

    def stage(
        self,
        interval_index: int,
        starts: list[int],
        ends: list[int],
        active_low: int | None = None,
    ) -> StagedCheckpoint:
        """Step one: stage the runs ``[starts[i], ends[i])``.

        The staging descriptor (run count) lands first; each run is then
        copied with its CRC.  *active_low* is kept for the caller's
        deferred bitmap clear.
        """
        oracle = self._oracle()
        if oracle is not None and self.staged is not None and self.staged.committed:
            # Reusing the staging buffer overwrites the replay source of
            # the previous checkpoint, so the OS flushes its still-pending
            # commit marker first.  Zero cycles here: bulk staged traffic
            # never sits in the demand write buffer.
            oracle.barrier()
        self.reached(STAGE_BEGIN)
        staged = StagedCheckpoint(
            interval_index, expected_runs=len(starts), active_low=active_low
        )
        self.staged = staged
        label = f"{self.label_prefix}[{interval_index}]"
        if oracle is not None:
            oracle.record(
                f"{label}.descriptor", undo=staged.lose_descriptor, size=8
            )
        reader = self.content_reader
        for index, (start, end) in enumerate(zip(starts, ends)):
            self.reached(stage_run_copy(index))
            run = DirtyRun(start, end)
            payload = tuple(reader(run)) if reader else ()
            staged_run = StagedRun(run, staged_run_crc(run, payload), payload)
            staged.staged_runs.append(staged_run)
            if oracle is not None:
                oracle.record(
                    f"{label}.stage_run[{index}]",
                    undo=partial(staged.lose_run, staged_run),
                    tear=staged_run.tear,
                    size=run.size,
                )
        return staged

    def commit(self) -> int:
        """Step two: make the staging durable, apply it, flip the marker.

        Persist-order discipline: the barrier retires the staged runs (and
        descriptor) to guaranteed-durable *before* the commit marker is
        issued, so the marker can never outlive the data it vouches for.
        The marker itself stays pending until the next barrier — losing it
        is always safe, because recovery replays the (durable) staging
        buffer and lands on the same checkpoint.  Returns the barrier
        cycles; a no-op when nothing is pending.
        """
        staged = self.staged
        if staged is None or staged.committed:
            return 0
        self.reached(PERSIST_BARRIER)
        cycles = self.hierarchy.persist_barrier()
        if self.content_writer is not None:
            for staged_run in staged.staged_runs:
                self.content_writer(staged_run)
        previous = self.last_committed_interval
        staged.committed = True
        self.last_committed_interval = staged.interval_index
        oracle = self._oracle()
        if oracle is not None:
            oracle.record(
                f"{self.label_prefix}[{staged.interval_index}].commit",
                undo=partial(self._lose_marker, staged, previous),
                size=8,
            )
        return cycles

    def _lose_marker(self, staged: StagedCheckpoint, previous: int | None) -> None:
        """Persist-order undo of a commit marker: it never landed."""
        staged.committed = False
        self.last_committed_interval = previous

    def recover(self) -> int | None:
        """Complete an interrupted commit from the staging buffer.

        Rolls forward only when the staging is complete and every staged
        run passes its checksum — a partial or torn staging is discarded
        (the previous committed checkpoint wins).  Returns the interval
        index recovered to, or None when nothing was ever committed.
        """
        staged = self.staged
        if staged is None or staged.committed:
            return self.last_committed_interval
        valid = (
            staged.complete if self.unsafe_trust_completeness else staged.verify()
        )
        if valid:
            self.commit()
        else:
            self.discard()
        return self.last_committed_interval

    def discard(self) -> None:
        """Drop an incomplete or corrupt staging buffer."""
        self.staged = None


class ProsperCheckpointEngine:
    """Drives tracker + bitmap to produce crash-consistent stack checkpoints."""

    def __init__(
        self,
        tracker: ProsperTracker,
        bitmap: DirtyBitmap,
        hierarchy: MemoryHierarchy,
        fixed_scale: float = 1.0,
        injector: FaultInjector | None = None,
        content_reader: ContentReader | None = None,
        content_writer: ContentWriter | None = None,
        label_prefix: str = "ckpt",
    ) -> None:
        self.tracker = tracker
        self.bitmap = bitmap
        self.hierarchy = hierarchy
        #: Scale for fixed per-event costs under a compressed clock
        #: (see repro.experiments.runner); 1.0 = real latencies.
        self.fixed_scale = fixed_scale
        self.staging = StagingBuffer(
            hierarchy, injector, label_prefix, content_reader, content_writer
        )
        self.results: list[CheckpointResult] = []

    def __getstate__(self) -> dict:
        """State for copies: a method wrapped per instance (a profiler's
        closure over this object) is not state (see
        :meth:`PersistenceMechanism.__getstate__`)."""
        cls = type(self)
        return {
            name: value for name, value in vars(self).items()
            if not (isinstance(value, FunctionType) and hasattr(cls, name))
        }

    # ------------------------------------------------------------------ #
    # Step one: stage dirty runs into the NVM staging buffer
    # ------------------------------------------------------------------ #

    def stage(
        self,
        interval_index: int,
        active_low_hint: int | None = None,
        final_sp: int | None = None,
    ) -> StageResult:
        """Quiesce, walk the bitmap, and stage every dirty run into NVM.

        *active_low_hint* is the lowest SP the OS observed during the
        interval (combined with the tracker's lowest dirty address, it
        bounds the bitmap walk).  *final_sp* is the SP at the commit point:
        the checkpoint is **SP-aware** (Section II-A) — dirty granules
        below it belong to popped frames and are dropped, not copied.
        """
        cycles = round(CHECKPOINT_FIXED_CYCLES * self.fixed_scale)

        # Step 1 — two-step quiescence.
        self.tracker.request_flush()
        cycles += self.tracker.msrs.outstanding_ops  # drain wait, ~1 cyc/op
        self.tracker.poll_quiescent()

        # Step 2 — bounded bitmap inspection (streamed a cache line at a
        # time; zero words are skipped cheaply).  The run bounds come out
        # of the bitmap columnar; clipping and size accounting stay in
        # numpy until the per-run staging records are built.
        active_low = self._active_low(active_low_hint)
        words = self.bitmap.words_touched(active_low)
        cycles += (
            -(-words // WORDS_PER_BITMAP_LINE) * INSPECT_CYCLES_PER_LINE
        )
        starts, ends = self.bitmap.dirty_run_bounds(active_low)
        if final_sp is not None and final_sp > self.bitmap.region.start:
            # SP awareness: clip every run to the live region [final_sp,
            # top).  Bits below final_sp belong to dead frames; the walk
            # still clears them (at commit) so they cannot leak into a
            # later checkpoint.
            live = ends > final_sp
            starts = np.maximum(starts[live], final_sp)
            ends = ends[live]

        # Step 3 — copy dirty runs into the NVM staging buffer.  The
        # copies are pipelined: one fixed device latency for the batch,
        # plus bandwidth-limited streaming of the bytes and a small
        # software setup cost per run.
        num_runs = len(starts)
        cycles += num_runs * PER_RUN_SETUP_CYCLES
        copied = int((ends - starts).sum())
        staged = self.staging.stage(
            interval_index, starts.tolist(), ends.tolist(), active_low
        )
        retries = 0
        if copied:
            copy = self.hierarchy.reliable_copy_dram_to_nvm(
                copied, self.fixed_scale
            )
            cycles += copy.cycles
            retries = copy.retries
            if copy.torn and staged.staged_runs:
                # The write in flight when the media tore was the last one;
                # corrupt its staged record so only the CRC can tell.
                staged.staged_runs[-1].tear()
        self.staging.reached(STAGE_COMPLETE)
        return StageResult(cycles, copied, num_runs, words, retries)

    # ------------------------------------------------------------------ #
    # Step two: commit the staged buffer onto the persistent stack
    # ------------------------------------------------------------------ #

    def commit_staged(self) -> int:
        """Copy the staged runs onto the per-thread persistent stack in NVM
        and commit them (no-op when nothing is pending)."""
        staged = self.staging.staged
        if staged is None or staged.committed:
            return 0
        total = sum(run.size for run in staged.runs)
        cycles = 0
        if total:
            copy = self.hierarchy.reliable_copy_nvm_to_nvm(
                total, self.fixed_scale
            )
            cycles += copy.cycles
        return cycles + self.staging.commit()

    def finish_interval(self) -> int:
        """Clear consumed bitmap words and start the next interval."""
        self.staging.reached(BITMAP_CLEAR)
        staged = self.staging.staged
        active_low = staged.active_low if staged is not None else None
        cleared = self.bitmap.clear(active_low)
        self.tracker.begin_interval()
        return cleared * CLEAR_CYCLES_PER_WORD

    # ------------------------------------------------------------------ #
    # Composite checkpoint (stage + commit + clear)
    # ------------------------------------------------------------------ #

    def checkpoint(
        self,
        interval_index: int,
        active_low_hint: int | None = None,
        final_sp: int | None = None,
    ) -> CheckpointResult:
        """Run one end-of-interval checkpoint; returns size/time accounting."""
        stage = self.stage(interval_index, active_low_hint, final_sp)
        cycles = stage.cycles
        # Step 4 — apply staging buffer onto the persistent stack and commit.
        cycles += self.commit_staged()
        # Step 5 — clear consumed bitmap words.
        cycles += self.finish_interval()

        result = CheckpointResult(
            interval_index,
            stage.copied_bytes,
            stage.runs,
            stage.words_inspected,
            cycles,
            retries=stage.retries,
        )
        self.results.append(result)
        return result

    def _active_low(self, hint: int | None) -> int | None:
        tracker_low = self.tracker.min_dirty_address
        candidates = [c for c in (hint, tracker_low) if c is not None]
        if not candidates:
            # Nothing dirtied and no hint: inspect nothing below the top.
            return self.bitmap.region.end
        # The OS must inspect everything from the lowest known dirty/active
        # address upward; taking the min is conservative and correct.
        return max(self.bitmap.region.start, min(candidates))
