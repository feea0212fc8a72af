"""Crash-consistency sweeps: crash at *every* point, verify recovery.

The paper's validation kills gem5 at a few hand-picked moments.  This
harness is systematic: a probe pass runs a deterministic multi-threaded
checkpoint workload with an unarmed :class:`FaultInjector` and records
every crash point that fires — ``stage_run_copy[i]`` per dirty run per
thread per interval, the per-thread stage/commit points, the per-process
metadata and commit-flag writes.  The sweep then re-runs the identical
workload once per (point, occurrence), crashing there, driving the
recovery path, and checking the crash-consistency invariant:

    After recovery, the process state (registers *and* stack contents,
    DRAM and NVM images alike) equals exactly one of

    * the checkpoint being taken when power failed (fully rolled forward),
    * the previous committed checkpoint (staging discarded), or
    * the pristine initial state, only if nothing had ever committed —

    and never a blend of two checkpoints or of two threads' epochs.

Two workloads run on the kernel machine (:mod:`repro.kernel.multicore`)
under the same probe, invariant and resume-legality rule
(:func:`legal_resumes`).  :class:`CrashConsistencyChecker` programs one
core's tracker for each thread directly and sweeps the staging/commit
protocol, optionally under transient NVM write errors.
:class:`MulticoreCrashChecker` gives two threads per core a real scheduler
quantum each interval, so it also reaches the points only a running
scheduler has: ``ctx_save``/``ctx_restore`` (tracker save/restore inside a
context switch) and ``barrier_quiesce`` (the stop-the-world quiesce before
a process-wide checkpoint).  Threads on different cores must never resume
from different checkpoint epochs, and a crash between checkpoints must
restore the latest committed one.

Every run derives from one seed, so a violation is exactly reproducible
by re-arming the same (point, occurrence).

This module imports the kernel layer, which reaches back down to
:mod:`repro.memory.devices`; import it as ``repro.faults.sweep``, not via
the package root (see ``repro/faults/__init__.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.tracker import ProsperTracker
from repro.faults.injector import (
    COMMIT_FLAG_WRITE,
    CTX_RESTORE,
    CTX_SAVE,
    CrashInjected,
    FaultInjector,
)
from repro.faults.nvm_errors import NvmErrorModel
from repro.kernel.multicore import KernelMachine, MultiCoreSimulation
from repro.kernel.process import Thread
from repro.kernel.simulation import MultiThreadSimulation
from repro.memory.address import AddressRange

#: Active stack window per thread: SP sits this far below the stack top and
#: never moves during the sweep workload, so the expected contents are exact.
ACTIVE_WINDOW_BYTES = 64 * 1024
#: Byte stride between dirty clusters, large enough that each cluster
#: coalesces into its own run (so ``stage_run_copy[i]`` fires per run).
CLUSTER_STRIDE = 4096

#: Crash points that fire between checkpoints (inside a context switch)
#: rather than inside the checkpoint pipeline.
WORKLOAD_PHASE_POINTS = frozenset({CTX_SAVE, CTX_RESTORE})

#: Sweep-case outcomes.
OUTCOME_ROLLED_FORWARD = "rolled_forward"
OUTCOME_PREVIOUS = "previous"
OUTCOME_FRESH_START = "fresh_start"
OUTCOME_VIOLATION = "violation"


@dataclass(frozen=True)
class SweepCase:
    """Result of one crash-and-recover run of the sweep."""

    point: str
    occurrence: int
    crashed_in_interval: int
    resumed_from: int | None
    outcome: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome != OUTCOME_VIOLATION


@dataclass
class SweepReport:
    """Aggregate outcome of a full crash-point sweep."""

    seed: int
    threads: int
    intervals: int
    writes_per_interval: int
    transient_rate: float
    cases: list[SweepCase] = field(default_factory=list)

    @property
    def violations(self) -> list[SweepCase]:
        return [case for case in self.cases if not case.ok]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def points_swept(self) -> int:
        return len({case.point for case in self.cases})

    def outcome_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for case in self.cases:
            counts[case.outcome] = counts.get(case.outcome, 0) + 1
        return counts


@dataclass(frozen=True)
class RetryDemoResult:
    """Outcome of the seeded transient-NVM-error recovery demo."""

    checkpoints: int
    retries: int
    resumed_from: int | None
    state_ok: bool


@dataclass(frozen=True)
class TornMetadataDemoResult:
    """Outcome of the torn-metadata-record detection demo."""

    resumed_from: int | None
    discarded_staged: int
    state_ok: bool

    @property
    def detected(self) -> bool:
        """The torn record was caught by its CRC and discarded."""
        return self.discarded_staged > 0


class _Scenario:
    """One deterministic run of a sweep workload on a kernel machine.

    Stack contents are tracked twice: in the machine's byte images (what the
    checkpoint/recovery machinery operates on) and in a plain Python mirror
    snapshotted before every checkpoint (what the invariant check compares
    against).  The mirror is *derived independently* of the checkpoint
    pipeline, so a pipeline bug cannot corrupt the expectation.

    Subclasses dirty the windows in ``_workload_interval``.
    """

    def __init__(
        self,
        sim: KernelMachine,
        seed: int,
        intervals: int,
        writes_per_interval: int,
    ) -> None:
        self.sim = sim
        self.seed = seed
        self.intervals = intervals
        self.writes_per_interval = writes_per_interval
        self.process = sim.process
        self.dram_images = sim.dram_images
        self.nvm_images = sim.nvm_images
        self.sp: dict[int, int] = {}
        for thread in self.process.iter_threads():
            thread.registers.stack_pointer = thread.stack.end - ACTIVE_WINDOW_BYTES
            self.sp[thread.tid] = thread.registers.stack_pointer
        #: Independent mirror of each thread's live stack words.
        self.mirror: dict[int, dict[int, int]] = {tid: {} for tid in self.sp}
        #: Mirror + register snapshots taken just before checkpoint k.
        self.mem_at: list[dict[int, dict[int, int]]] = []
        self.regs_at: list[dict[int, int]] = []

    # ------------------------------------------------------------------ #
    # Workload
    # ------------------------------------------------------------------ #

    def _workload_interval(self, k: int) -> None:
        raise NotImplementedError

    def _dirty_window(self, thread: Thread, tracker: ProsperTracker, k: int) -> None:
        """Dirty *thread*'s active window with interval-unique values.

        The same addresses are rewritten every interval with values that
        encode (thread, interval, write index), so any blend of two
        checkpoint epochs shows up as a mismatched word.
        """
        sp = self.sp[thread.tid]
        for j in range(self.writes_per_interval):
            address = sp + j * CLUSTER_STRIDE
            value = (thread.tid << 48) | ((k + 1) << 32) | (j + 1)
            tracker.observe_store(address, 8)
            self.dram_images[thread.tid].write(address, value)
            self.mirror[thread.tid][address] = value
            thread.registers.op_index += 1

    def run(self) -> int:
        """Run every interval + checkpoint; returns checkpoints completed.

        An armed injector makes this raise :class:`CrashInjected` either
        between checkpoints (``len(self.mem_at)`` checkpoints committed) or
        inside checkpoint ``len(self.mem_at) - 1``.
        """
        completed = 0
        for k in range(self.intervals):
            self._workload_interval(k)
            self.mem_at.append(
                {tid: dict(words) for tid, words in self.mirror.items()}
            )
            self.regs_at.append(
                {
                    thread.tid: thread.registers.op_index
                    for thread in self.process.iter_threads()
                }
            )
            self.sim._checkpoint()
            completed += 1
        return completed

    # ------------------------------------------------------------------ #
    # Invariant check
    # ------------------------------------------------------------------ #

    def state_mismatch(self, sequence: int | None) -> str | None:
        """Compare restored state against checkpoint *sequence*'s snapshot.

        Registers and stack contents (DRAM and NVM images alike) must equal
        exactly one checkpoint's snapshot — never a blend of two checkpoints
        or of two threads' epochs.  Returns None on an exact match, else a
        description of the first divergence.  ``sequence=None`` means
        "pristine": no checkpoint ever committed.
        """
        if sequence is None:
            expected_regs = {tid: 0 for tid in self.sp}
            expected_mem: dict[int, dict[int, int]] = {tid: {} for tid in self.sp}
        else:
            expected_regs = self.regs_at[sequence]
            expected_mem = self.mem_at[sequence]
        for thread in self.process.iter_threads():
            tid = thread.tid
            if thread.registers.op_index != expected_regs[tid]:
                return (
                    f"tid {tid}: op_index {thread.registers.op_index} != "
                    f"expected {expected_regs[tid]}"
                )
            window = AddressRange(self.sp[tid], thread.stack.end)
            for label, image in (
                ("DRAM", self.dram_images[tid]),
                ("NVM", self.nvm_images[tid]),
            ):
                actual = dict(image.words_in_range(window))
                if actual != expected_mem[tid]:
                    return (
                        f"tid {tid}: {label} stack contents diverge from "
                        f"checkpoint {sequence} (blend or data loss)"
                    )
        return None


class _SweepScenario(_Scenario):
    """Single-core workload: the tracker is programmed for each thread
    directly (no context switch), so only the staging/commit protocol's
    crash points fire.  *transient_rate* turns on seeded NVM write errors.
    """

    def __init__(
        self,
        seed: int,
        threads: int,
        intervals: int,
        writes_per_interval: int,
        transient_rate: float,
        injector: FaultInjector | None,
    ) -> None:
        sim = MultiThreadSimulation([[] for _ in range(threads)], injector=injector)
        if transient_rate and sim.hierarchy.nvm is not None:
            sim.hierarchy.nvm.error_model = NvmErrorModel(
                seed=seed, transient_write_rate=transient_rate
            )
        super().__init__(sim, seed, intervals, writes_per_interval)

    def _workload_interval(self, k: int) -> None:
        tracker = self.sim.tracker
        for thread in self.process.iter_threads():
            tracker.configure(thread.bitmap)
            self._dirty_window(thread, tracker, k)
            tracker.request_flush()
            tracker.poll_quiescent()


class _MulticoreScenario(_Scenario):
    """Multicore workload: two persistent threads per core, real scheduler.

    Each interval gives every thread one scheduling quantum on its home
    core — a genuine :meth:`Scheduler.switch_to` with Prosper tracker
    save/restore, which is where the ``ctx_save``/``ctx_restore`` crash
    points live — during which the thread dirties its active stack window.
    The machine's stop-the-world checkpoint then crosses the quiesce
    barrier (``barrier_quiesce``) on every core.  Two threads per core make
    every switch both save the outgoing tracker state and restore the
    incoming one.
    """

    def __init__(
        self,
        seed: int,
        cores: int,
        intervals: int,
        writes_per_interval: int,
        injector: FaultInjector | None,
    ) -> None:
        sim = MultiCoreSimulation(
            [[] for _ in range(2 * cores)], num_cores=cores, injector=injector
        )
        super().__init__(sim, seed, intervals, writes_per_interval)

    def _workload_interval(self, k: int) -> None:
        for core in self.sim.cores:
            for thread, _ops, _cursor in core.queue:
                core.scheduler.switch_to(thread)  # ctx_save / ctx_restore
                self._dirty_window(thread, core.tracker, k)


def legal_resumes(point: str, crashed_in: int) -> dict[int | None, str]:
    """The resume-legality rule: checkpoints recovery may resume from.

    Maps each legal checkpoint sequence (None: pristine state) to its
    outcome.  *crashed_in* is the last checkpoint snapshotted before the
    crash.  A crash inside checkpoint k = *crashed_in* resolves to k
    (rolled forward), k - 1 (staging discarded) or, when k = 0, a fresh
    start.  A crash outside any checkpoint (a context switch) must restore
    the latest committed checkpoint, k, exactly — anything older is data
    loss that roll-forward cannot excuse.
    """
    if point in WORKLOAD_PHASE_POINTS:
        # No checkpoint in flight: as if crashed inside the next one, which
        # had staged nothing and so cannot roll forward.
        in_flight = crashed_in + 1
        legal: dict[int | None, str] = {}
    else:
        in_flight = crashed_in
        legal = {in_flight: OUTCOME_ROLLED_FORWARD}
    if in_flight > 0:
        legal[in_flight - 1] = OUTCOME_PREVIOUS
    else:
        legal[None] = OUTCOME_FRESH_START
    return legal


class CrashConsistencyChecker:
    """Enumerates every crash point of a workload and verifies recovery.

    Sweeps the single-core workload; :class:`MulticoreCrashChecker` swaps
    in the multicore one.
    """

    def __init__(
        self,
        seed: int = 0,
        threads: int = 2,
        intervals: int = 3,
        writes_per_interval: int = 4,
        transient_rate: float = 0.0,
    ) -> None:
        if threads < 1 or intervals < 1 or writes_per_interval < 1:
            raise ValueError("threads, intervals and writes must be positive")
        if not 0.0 <= transient_rate <= 1.0:
            raise ValueError("transient rate must be in [0, 1]")
        self.seed = seed
        self.threads = threads
        self.intervals = intervals
        self.writes_per_interval = writes_per_interval
        self.transient_rate = transient_rate

    def _scenario(self, injector: FaultInjector | None) -> _Scenario:
        return _SweepScenario(
            self.seed,
            self.threads,
            self.intervals,
            self.writes_per_interval,
            self.transient_rate,
            injector,
        )

    def enumerate_points(self) -> list[tuple[str, int]]:
        """Probe pass: every (point, occurrence) the workload reaches."""
        probe = FaultInjector(self.seed)
        self._scenario(probe).run()
        ordered: list[str] = []
        for point in probe.fired:
            if point not in ordered:
                ordered.append(point)
        counts = probe.occurrences()
        return [
            (point, occurrence)
            for point in ordered
            for occurrence in range(counts[point])
        ]

    def run_case(self, point: str, occurrence: int) -> SweepCase:
        """Crash at one (point, occurrence), recover, check the invariant."""
        injector = FaultInjector(self.seed)
        injector.arm(point, occurrence)
        scenario = self._scenario(injector)
        try:
            scenario.run()
        except CrashInjected:
            pass
        else:
            return SweepCase(
                point,
                occurrence,
                -1,
                None,
                OUTCOME_VIOLATION,
                "armed crash point never fired",
            )
        crashed_in = len(scenario.mem_at) - 1
        injector.disarm()
        scenario.sim.crash()
        resumed = scenario.sim.recover().resumed_from_sequence

        legal = legal_resumes(point, crashed_in)
        if resumed not in legal:
            detail = f"resumed from {resumed}, expected " + " or ".join(
                str(sequence) for sequence in legal
            )
        else:
            detail = scenario.state_mismatch(resumed)
        if detail is not None:
            return SweepCase(
                point, occurrence, crashed_in, resumed, OUTCOME_VIOLATION, detail
            )
        return SweepCase(point, occurrence, crashed_in, resumed, legal[resumed])

    def run(self) -> SweepReport:
        """Sweep every enumerated (point, occurrence)."""
        report = SweepReport(
            self.seed,
            self.threads,
            self.intervals,
            self.writes_per_interval,
            self.transient_rate,
        )
        for point, occurrence in self.enumerate_points():
            report.cases.append(self.run_case(point, occurrence))
        return report


class MulticoreCrashChecker(CrashConsistencyChecker):
    """Sweeps the multicore workload: two threads per core, context-switch
    and quiesce-barrier crash points included."""

    def __init__(
        self,
        seed: int = 0,
        cores: int = 2,
        intervals: int = 3,
        writes_per_interval: int = 4,
    ) -> None:
        if cores < 1:
            raise ValueError("cores must be positive")
        super().__init__(seed, 2 * cores, intervals, writes_per_interval)
        self.cores = cores

    def _scenario(self, injector: FaultInjector | None) -> _Scenario:
        return _MulticoreScenario(
            self.seed, self.cores, self.intervals, self.writes_per_interval, injector
        )


# ---------------------------------------------------------------------- #
# Targeted demos (used by the CLI and the example script)
# ---------------------------------------------------------------------- #


def transient_retry_demo(
    seed: int = 0,
    threads: int = 2,
    intervals: int = 3,
    writes_per_interval: int = 4,
    transient_rate: float = 0.25,
) -> RetryDemoResult:
    """Checkpoint under transient NVM write errors, crash, recover.

    The error model makes a deterministic fraction of checkpoint writes
    fail transiently; the reliable-write path retries with backoff, the
    retries are charged to the checkpoint's cycles, and recovery must
    still restore the last committed checkpoint exactly.
    """
    checker = CrashConsistencyChecker(
        seed, threads, intervals, writes_per_interval, transient_rate
    )
    scenario = checker._scenario(None)
    completed = scenario.run()
    retries = sum(record.retries for record in scenario.sim.manager.checkpoints)
    scenario.sim.crash()
    report = scenario.sim.recover()
    mismatch = scenario.state_mismatch(report.resumed_from_sequence)
    return RetryDemoResult(
        checkpoints=completed,
        retries=retries,
        resumed_from=report.resumed_from_sequence,
        state_ok=(report.resumed_from_sequence == completed - 1)
        and mismatch is None,
    )


def torn_metadata_demo(
    seed: int = 0,
    threads: int = 2,
    writes_per_interval: int = 4,
) -> TornMetadataDemoResult:
    """Tear checkpoint 1's metadata record, crash mid-commit, recover.

    The tear is silent at write time; the staging for checkpoint 1 is
    complete, so a recovery that trusted completeness alone would roll it
    forward onto registers it cannot validate.  The metadata CRC catches
    the tear: the staged data is discarded and the process falls back to
    committed checkpoint 0.
    """
    injector = FaultInjector(seed)
    injector.tear_metadata_at(1)
    # Crash at the commit-flag write of checkpoint 1 (its 2nd occurrence).
    injector.arm(COMMIT_FLAG_WRITE, occurrence=1)
    checker = CrashConsistencyChecker(
        seed, threads, intervals=2, writes_per_interval=writes_per_interval
    )
    scenario = checker._scenario(injector)
    try:
        scenario.run()
    except CrashInjected:
        pass
    injector.disarm()
    scenario.sim.crash()
    report = scenario.sim.recover()
    mismatch = scenario.state_mismatch(report.resumed_from_sequence)
    return TornMetadataDemoResult(
        resumed_from=report.resumed_from_sequence,
        discarded_staged=scenario.sim.manager.discarded_staged,
        state_ok=(report.resumed_from_sequence == 0) and mismatch is None,
    )
