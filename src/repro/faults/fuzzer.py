"""The crash checker: crash a target, resolve what persisted, recover, verify.

The paper validates Prosper's crash consistency by killing gem5 at a few
hand-picked moments.  This module checks the same claim — two-step
staging and commit always recover to exactly one whole checkpoint —
systematically, as one runner over three axes:

* **targets** — the machine that loses power.  An *engine target*
  (:func:`build_setup`) runs one persistence mechanism on one execution
  engine under a golden-image recorder; a *kernel target*
  (:class:`SingleCoreTarget`, :class:`MulticoreTarget`) runs persistent
  threads on the kernel machine (:mod:`repro.kernel.multicore`) and
  checkpoints the whole process;
* **crash specs** — *when* power fails: at an arbitrary *cycle* offset
  (:meth:`FaultInjector.arm_cycle`) or at the N-th occurrence of a named
  protocol point (:meth:`FaultInjector.arm`);
* **persist plans** — *what* survives: a
  :class:`~repro.faults.order.PersistPlan` over the writes still pending
  behind the last barrier decides which landed, with an optional torn
  tail.  The neat plan ``PersistPlan()`` lands everything.

A target supplies only ``run()``; ``snapshots``, its **golden snapshots**
(one per checkpoint begun, recorded independently of the checkpoint
pipeline); ``oracle``, its persist-order oracle; ``injector``;
``drop_volatile()``; ``recover() -> int | None``; ``check(resumed)``, a
state check against one snapshot; ``staged_protocol`` and ``cycles``.
Everything else exists once: the probe
(:func:`probe`), the per-case path (:func:`run_crash`), the
resume-legality rule (:func:`expected_resumes`), the outcome type
(:class:`ScheduleOutcome`), the plan shrinker (:func:`shrink_plan`) and
the two reports.  ``repro faults sweep`` is the exhaustive mode
(:func:`run_sweep`: every probed named point of the kernel targets under
the neat plan); ``repro faults fuzz`` is the sampled mode
(:func:`run_campaign`: seeded crash specs and plans over engine targets).

Engine targets cover two kinds of mechanism:

* ``prosper`` and ``dirtybit`` stage real checksummed contents through
  one two-step protocol (:class:`~repro.core.checkpoint.StagingBuffer`,
  their ``staging`` attribute) — the durable image must equal the recovered
  checkpoint's snapshot word for word, with no ghost words from a newer
  epoch;
* ``ssp`` / ``flush`` / ``undo`` / ``redo`` persist in place with no
  staged protocol; for them the checker applies the weaker bookkeeping
  oracle (interval-commit records are exactly-once and recovery resumes
  from the newest durable one).

Both engines are covered, each running its own loop: the batched engine
(:class:`~repro.cpu.engine_fast.BatchedExecutionEngine`, the one every
figure runs) polls an armed cycle deadline after every op exactly where
the scalar reference does, and named points fire in the checkpoint code
both share, so a batched schedule matches its scalar twin outcome for
outcome (asserted by the tier-1 tests).

An engine-target schedule does not replay the trace from op 0: it forks
from the probe's golden run (:class:`GoldenRun`) at the latest interval
boundary its crash spec allows, and so replays at most one interval.
Forks are deep copies, so no closure may be reachable from a target
(see :meth:`EngineTarget.fork`).

This module imports the kernel and engine layers, which reach back down
to :mod:`repro.memory.devices`; import it as ``repro.faults.fuzzer``, not
via the package root (see ``repro/faults/__init__.py``).
"""

from __future__ import annotations

import copy
import random
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.core.tracker import ProsperTracker
from repro.cpu.engine import ExecutionEngine, trace_array
from repro.cpu.engine_fast import BatchedExecutionEngine
from repro.cpu.ops import NO_OPS, TraceBuilder
from repro.faults.injector import (
    COMMIT_FLAG_WRITE,
    CTX_RESTORE,
    CTX_SAVE,
    CrashInjected,
    FaultInjector,
    is_cycle_point,
)
from repro.faults.nvm_errors import NvmErrorModel
from repro.faults.order import CrashOutcome, PersistOrderOracle, PersistPlan
from repro.kernel.multicore import KernelMachine, MultiCoreSimulation
from repro.kernel.process import Thread
from repro.kernel.restore import RecoveryReport
from repro.kernel.simulation import MultiThreadSimulation
from repro.memory.address import AddressRange
from repro.memory.image import WORD_BYTES, ByteImage
from repro.persistence.base import IntervalContext, PersistenceMechanism
from repro.persistence.dirtybit import DirtyBitPersistence
from repro.persistence.logging import (
    FlushPersistence,
    RedoLogPersistence,
    UndoLogPersistence,
)
from repro.persistence.prosper import ProsperPersistence
from repro.persistence.ssp import SspPersistence

#: Mechanisms with a staged-content checkpoint protocol: the full
#: golden-image oracle (content equality + ghost-word detection) applies.
CONTENT_MECHANISMS = ("prosper", "dirtybit")
#: In-place mechanisms verified by the bookkeeping oracle only.
INTERVAL_MECHANISMS = ("ssp", "flush", "undo", "redo")
MECHANISMS = CONTENT_MECHANISMS + INTERVAL_MECHANISMS
ENGINES = ("scalar", "batched")

#: The workload keeps every store inside a window at the top of the stack
#: while the SP (pushed below it by one large entry frame) wiggles
#: underneath — so no store is ever clipped by SP awareness or popped,
#: and the golden image covers the whole window at every snapshot.
WINDOW_BYTES = 16 * 1024
ENTRY_FRAME_BYTES = WINDOW_BYTES + 2048

_STACK_RANGE = AddressRange(0x7000_0000, 0x7010_0000)

#: Kernel targets: SP sits this far below each stack top and never moves,
#: so the golden stack contents are exact.
ACTIVE_WINDOW_BYTES = 64 * 1024
#: Byte stride between a kernel target's dirty clusters, large enough that
#: each cluster coalesces into its own run (``stage_run_copy[i]`` per run).
CLUSTER_STRIDE = 4096

#: Named points that fire between checkpoints (inside a context switch)
#: rather than inside the checkpoint pipeline.
BETWEEN_CHECKPOINT_POINTS = frozenset({CTX_SAVE, CTX_RESTORE})


def build_trace(seed: int, ops: int = 1200) -> np.ndarray:
    """Deterministic fuzz workload: window stores/loads, CALL/RET wiggle,
    compute gaps.  Same (seed, ops) -> same trace, on any platform."""
    rng = random.Random(f"fuzz-trace:{seed}")
    tb = TraceBuilder()
    window_base = _STACK_RANGE.end - WINDOW_BYTES
    window_words = WINDOW_BYTES // WORD_BYTES
    frames: list[int] = []
    tb.call(ENTRY_FRAME_BYTES)
    for _ in range(max(0, ops - 1)):
        r = rng.random()
        if r < 0.45:
            tb.write(window_base + WORD_BYTES * rng.randrange(window_words))
        elif r < 0.60:
            tb.read(window_base + WORD_BYTES * rng.randrange(window_words))
        elif r < 0.72 and len(frames) < 8:
            frame = rng.choice((64, 128, 256))
            frames.append(frame)
            tb.call(frame)
        elif r < 0.84 and frames:
            tb.ret(frames.pop())
        else:
            tb.compute(rng.randrange(1, 30))
    return tb.to_array()


# ---------------------------------------------------------------------- #
# Golden-image recorder
# ---------------------------------------------------------------------- #


@dataclass
class IntervalSnapshot:
    """The golden image at one interval boundary: what a checkpoint of
    that interval must reproduce after recovery."""

    image: ByteImage
    final_sp: int

    def __deepcopy__(self, memo: dict) -> "IntervalSnapshot":
        return self  # never mutated once captured


class RecordingMechanism(PersistenceMechanism):
    """Transparent wrapper that maintains the golden image.

    Every store is assigned the next value of a monotonic counter and
    written into the shared DRAM image *before* the inner mechanism's hook
    runs; every interval boundary snapshots the image (before the inner
    checkpoint reads it, which sees identical contents — no stores happen
    in between).  Batching is disabled so store order and values are
    exact, which keeps the batched engine on its per-op loop.

    On the probe's golden run, :attr:`golden` is set and every interval
    start after the first copies the whole target into it, before the
    inner hook runs (see :class:`GoldenRun`).
    """

    def __init__(self, inner: PersistenceMechanism, dram: ByteImage) -> None:
        super().__init__()
        self.inner = inner
        self.dram = dram
        self.name = inner.name
        self.region_in_nvm = inner.region_in_nvm
        self.supports_batching = False
        self.snapshots: list[IntervalSnapshot] = []
        self._counter = 0
        self.golden: GoldenRun | None = None

    def attach(self, engine, region: AddressRange) -> None:
        super().attach(engine, region)
        self.inner.attach(engine, region)

    def on_load(self, address: int, size: int, now: int) -> int:
        return self.inner.on_load(address, size, now)

    def on_store(self, address: int, size: int, now: int) -> int:
        self._counter += 1
        self.dram.write(address, self._counter)
        return self.inner.on_store(address, size, now)

    def on_interval_start(self, ctx: IntervalContext) -> int:
        if self.golden is not None and ctx.interval_index > 0:
            self.golden.capture()
        return self.inner.on_interval_start(ctx)

    def on_interval_end(self, ctx: IntervalContext) -> int:
        self.snapshots.append(IntervalSnapshot(self.dram.snapshot(), ctx.final_sp))
        return self.inner.on_interval_end(ctx)

    def persisted_state(self) -> dict:
        return self.inner.persisted_state()


class IntervalCommitRecorder(RecordingMechanism):
    """Recorder for in-place mechanisms with no staged protocol of their
    own: models "interval k is durable" as one commit record per interval,
    registered with the persist-order oracle *after* the inner mechanism's
    end-of-interval barrier — so it stays pending (losable) until the next
    interval's barrier retires it, exactly like a commit marker."""

    def __init__(
        self,
        inner: PersistenceMechanism,
        dram: ByteImage,
        oracle: PersistOrderOracle,
    ) -> None:
        super().__init__(inner, dram)
        self.oracle = oracle
        self.commits: list[int] = []

    def on_interval_end(self, ctx: IntervalContext) -> int:
        cycles = super().on_interval_end(ctx)
        index = len(self.snapshots) - 1
        self.commits.append(index)
        self.oracle.record(
            f"interval[{index}].commit",
            undo=partial(self._lose_commit, index),
            size=8,
        )
        return cycles

    def _lose_commit(self, index: int) -> None:
        """Persist-order undo: interval *index*'s commit record never landed."""
        if index in self.commits:
            self.commits.remove(index)

    def recover(self) -> int | None:
        """Newest interval whose commit record survived."""
        return self.commits[-1] if self.commits else None


# ---------------------------------------------------------------------- #
# Crash targets
# ---------------------------------------------------------------------- #


@dataclass
class EngineTarget:
    """One mechanism on one execution engine, with golden-image recorder,
    injector and persist-order oracle attached, ready to run *trace*."""

    mechanism: str
    engine_name: str
    engine: ExecutionEngine
    injector: FaultInjector
    oracle: PersistOrderOracle
    recorder: RecordingMechanism
    inner: PersistenceMechanism
    dram: ByteImage
    durable: ByteImage | None  # persistent NVM contents (content mechs)
    trace: np.ndarray
    interval_ops: int | None = None
    #: Trace position :meth:`run` starts from: 0 on a fresh machine, the
    #: interval boundary it was copied at on a fork (:meth:`fork`).
    start_op: int = 0

    @property
    def staged_protocol(self) -> bool:
        return self.mechanism in CONTENT_MECHANISMS

    @property
    def snapshots(self) -> list[IntervalSnapshot]:
        return self.recorder.snapshots

    @property
    def cycles(self) -> int:
        return self.engine.now

    def run(self) -> None:
        self.engine.run(self.trace[self.start_op:], interval_ops=self.interval_ops)

    def fork(self, memo: dict | None = None) -> "EngineTarget":
        """An independent copy of the whole machine, sharing only the trace
        and the (immutable) machine config.  Nothing reachable from a
        target may be a closure: ``deepcopy`` shares functions, so a
        closure would keep acting on the original.  Bound methods and
        ``functools.partial`` are re-bound to the copies."""
        memo = dict(memo or {})
        memo[id(self.trace)] = self.trace
        memo[id(self.engine.config)] = self.engine.config
        return copy.deepcopy(self, memo)

    def drop_volatile(self) -> None:
        self.dram.clear()

    def recover(self) -> int | None:
        if self.staged_protocol:
            return self.inner.staging.recover()
        return self.recorder.recover()

    def check(self, resumed: int | None) -> list[str]:
        if not self.staged_protocol:
            commits = self.recorder.commits
            problems = []
            if any(b <= a for a, b in zip(commits, commits[1:])):
                problems.append(f"commit records not strictly increasing: {commits}")
            if commits and resumed != commits[-1]:
                problems.append(
                    f"resumed {resumed} but newest durable commit is {commits[-1]}"
                )
            return problems
        problems = self._check_content(resumed)
        staged = self.inner.staging.staged
        if (
            staged is not None
            and staged.committed
            and staged.interval_index != resumed
        ):
            problems.append(
                f"committed staging buffer says interval "
                f"{staged.interval_index}, recovery says {resumed}"
            )
        return problems

    def _check_content(self, resumed: int | None) -> list[str]:
        """Golden-image comparison: the durable NVM contents must equal the
        snapshot of the recovered checkpoint — no lost words, no ghosts."""
        durable = self.durable
        assert durable is not None
        if resumed is None:
            stray = sum(1 for _ in durable.iter_words())
            if stray:
                return [
                    f"no checkpoint committed but durable image holds {stray} words"
                ]
            return []

        snap = self.recorder.snapshots[resumed]
        problems: list[str] = []
        golden = dict(snap.image.iter_words())
        for address, value in sorted(golden.items()):
            if address < snap.final_sp:
                continue  # dead frames: legitimately dropped by SP awareness
            got = durable.read(address, -1)
            if got != value:
                problems.append(
                    f"word {address:#x}: durable {got} != checkpointed {value}"
                )
                break
        for address, value in sorted(durable.iter_words()):
            if address >= snap.final_sp and address not in golden:
                problems.append(
                    f"ghost word {address:#x}={value} in durable image "
                    f"(epoch blending)"
                )
                break
        return problems


def _read_run(dram: ByteImage, run) -> Iterable[tuple[int, int]]:
    """Content reader of an engine target: a dirty run's DRAM words."""
    return dram.words_in_range(AddressRange(run.start, run.end))


def _write_run(durable: ByteImage, staged_run) -> None:
    """Content writer of an engine target: apply a committed staged run."""
    durable.replace_range(
        AddressRange(staged_run.run.start, staged_run.run.end),
        staged_run.payload,
    )


def build_setup(
    mechanism: str,
    engine_name: str,
    weaken: bool = False,
    trace: np.ndarray = NO_OPS,
    interval_ops: int | None = None,
    resume_from: EngineTarget | None = None,
) -> EngineTarget:
    """Wire one (mechanism, engine) target with recorder, injector and
    persist-order oracle attached, to run *trace* in *interval_ops*-op
    intervals.  *weaken* enables the test-only trust-completeness
    recovery mutant (prosper only).

    *resume_from*, a golden-run snapshot of the same target
    (:meth:`GoldenRun.resume_point`), returns a fork of it instead of a
    fresh machine: it runs the rest of the trace from that snapshot's
    interval boundary, exactly as the golden run continued."""
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    if engine_name not in ENGINES:
        raise ValueError(f"unknown engine {engine_name!r}")
    if weaken and mechanism != "prosper":
        raise ValueError("the weakened recovery mutant is prosper-only")

    if resume_from is not None:
        target = resume_from.fork()
        if weaken:
            # The golden run is unweakened; the mutant only changes recovery.
            target.inner.staging.unsafe_trust_completeness = True
        return target

    dram = ByteImage()
    durable: ByteImage | None = None
    oracle = PersistOrderOracle()
    if mechanism in CONTENT_MECHANISMS:
        durable = ByteImage()
        reader = partial(_read_run, dram)
        writer = partial(_write_run, durable)
        if mechanism == "prosper":
            inner: PersistenceMechanism = ProsperPersistence(
                content_reader=reader, content_writer=writer
            )
        else:
            inner = DirtyBitPersistence(
                content_reader=reader, content_writer=writer
            )
        recorder = RecordingMechanism(inner, dram)
    else:
        inner = {
            "ssp": SspPersistence,
            "flush": FlushPersistence,
            "undo": UndoLogPersistence,
            "redo": RedoLogPersistence,
        }[mechanism]()
        recorder = IntervalCommitRecorder(inner, dram, oracle)

    injector = FaultInjector()
    engine_cls = ExecutionEngine if engine_name == "scalar" else BatchedExecutionEngine
    engine = engine_cls(
        stack_range=_STACK_RANGE, mechanism=recorder, fault_injector=injector
    )
    nvm = engine.hierarchy.nvm
    if nvm is None:
        raise RuntimeError("fuzzing requires a machine with an NVM device")
    nvm.order_oracle = oracle
    if weaken:
        inner.staging.unsafe_trust_completeness = True
    return EngineTarget(
        mechanism, engine_name, engine, injector, oracle, recorder, inner,
        dram, durable, trace_array(trace), interval_ops,
    )


@dataclass(frozen=True)
class KernelSnapshot:
    """A kernel target's golden state just before one checkpoint: each
    thread's op index and live stack words."""

    op_index: dict[int, int]
    words: dict[int, dict[int, int]]


class KernelTarget:
    """Persistent threads on a kernel machine, checkpointed process-wide.

    Each interval rewrites the same stack addresses of every thread with
    values encoding (thread, interval, write index), so any blend of two
    checkpoint epochs — or of two threads' epochs — shows up as a
    mismatched word.  The golden snapshots come from a plain Python copy
    of those writes, taken before every checkpoint, so a pipeline bug
    cannot corrupt the expectation.  *transient_rate* turns on seeded
    transient NVM write errors on the checkpoint device.

    Subclasses build the machine and dirty the windows each interval.
    """

    mechanism = "prosper"
    engine_name = "kernel"
    staged_protocol = True

    def __init__(
        self,
        seed: int,
        intervals: int,
        writes_per_interval: int,
        transient_rate: float,
    ) -> None:
        if intervals < 1 or writes_per_interval < 1:
            raise ValueError("threads, intervals and writes must be positive")
        if not 0.0 <= transient_rate <= 1.0:
            raise ValueError("transient rate must be in [0, 1]")
        self.intervals = intervals
        self.writes_per_interval = writes_per_interval
        self.injector = FaultInjector(seed)
        self.oracle = PersistOrderOracle()
        self.sim = self._build_machine()
        nvm = self.sim.manager.hierarchy.nvm
        if transient_rate:
            nvm.error_model = NvmErrorModel(
                seed=seed, transient_write_rate=transient_rate
            )
        nvm.order_oracle = self.oracle
        self.sp: dict[int, int] = {}
        for thread in self.sim.process.iter_threads():
            thread.registers.stack_pointer = thread.stack.end - ACTIVE_WINDOW_BYTES
            self.sp[thread.tid] = thread.registers.stack_pointer
        self.live: dict[int, dict[int, int]] = {tid: {} for tid in self.sp}
        self.snapshots: list[KernelSnapshot] = []
        #: The last :meth:`recover`'s full report.
        self.report: RecoveryReport | None = None

    def _build_machine(self) -> KernelMachine:
        raise NotImplementedError

    def _workload_interval(self, k: int) -> None:
        raise NotImplementedError

    def _dirty_window(self, thread: Thread, tracker: ProsperTracker, k: int) -> None:
        """Dirty *thread*'s active window with interval-unique values."""
        sp = self.sp[thread.tid]
        for j in range(self.writes_per_interval):
            address = sp + j * CLUSTER_STRIDE
            value = (thread.tid << 48) | ((k + 1) << 32) | (j + 1)
            tracker.observe_store(address, 8)
            self.sim.dram_images[thread.tid].write(address, value)
            self.live[thread.tid][address] = value
            thread.registers.op_index += 1

    @property
    def cycles(self) -> int:
        return self.sim.manager.hierarchy.now

    def run(self) -> None:
        """Every interval, then its checkpoint.  An armed injector raises
        either between checkpoints or inside the last one snapshotted."""
        for k in range(self.intervals):
            self._workload_interval(k)
            self.snapshots.append(KernelSnapshot(
                {t.tid: t.registers.op_index for t in self.sim.process.iter_threads()},
                {tid: dict(words) for tid, words in self.live.items()},
            ))
            self.sim._checkpoint()

    def drop_volatile(self) -> None:
        self.sim.crash()

    def recover(self) -> int | None:
        self.report = self.sim.recover()
        return self.report.resumed_from_sequence

    def check(self, resumed: int | None) -> list[str]:
        """Registers and stack contents (DRAM and NVM images alike) must
        equal snapshot *resumed* exactly (None: pristine state)."""
        if resumed is None:
            expected = KernelSnapshot(
                {tid: 0 for tid in self.sp}, {tid: {} for tid in self.sp}
            )
        else:
            expected = self.snapshots[resumed]
        for thread in self.sim.process.iter_threads():
            tid = thread.tid
            if thread.registers.op_index != expected.op_index[tid]:
                return [
                    f"tid {tid}: op_index {thread.registers.op_index} != "
                    f"expected {expected.op_index[tid]}"
                ]
            window = AddressRange(self.sp[tid], thread.stack.end)
            for label, image in (
                ("DRAM", self.sim.dram_images[tid]),
                ("NVM", self.sim.nvm_images[tid]),
            ):
                if dict(image.words_in_range(window)) != expected.words[tid]:
                    return [
                        f"tid {tid}: {label} stack contents diverge from "
                        f"checkpoint {resumed} (blend or data loss)"
                    ]
        return []


class SingleCoreTarget(KernelTarget):
    """One core; the tracker is programmed for each thread directly (no
    context switch), so only the staging/commit protocol's points fire."""

    def __init__(
        self,
        seed: int = 0,
        threads: int = 2,
        intervals: int = 3,
        writes_per_interval: int = 4,
        transient_rate: float = 0.0,
    ) -> None:
        if threads < 1:
            raise ValueError("threads, intervals and writes must be positive")
        self.threads = threads
        super().__init__(seed, intervals, writes_per_interval, transient_rate)

    def _build_machine(self) -> KernelMachine:
        return MultiThreadSimulation(
            [NO_OPS] * self.threads, injector=self.injector
        )

    def _workload_interval(self, k: int) -> None:
        tracker = self.sim.tracker
        for thread in self.sim.process.iter_threads():
            tracker.configure(thread.bitmap)
            self._dirty_window(thread, tracker, k)
            tracker.request_flush()
            tracker.poll_quiescent()


class MulticoreTarget(KernelTarget):
    """Two persistent threads per core under the real scheduler.

    Each interval gives every thread one quantum on its home core — a
    genuine :meth:`Scheduler.switch_to` with tracker save/restore, where
    ``ctx_save``/``ctx_restore`` live — during which it dirties its
    window.  The stop-the-world checkpoint then crosses the quiesce
    barrier (``barrier_quiesce``) on every core.  Two threads per core
    make every switch both save the outgoing tracker and restore the
    incoming one.
    """

    def __init__(
        self,
        seed: int = 0,
        cores: int = 2,
        intervals: int = 3,
        writes_per_interval: int = 4,
        transient_rate: float = 0.0,
    ) -> None:
        if cores < 1:
            raise ValueError("cores must be positive")
        self.cores = cores
        super().__init__(seed, intervals, writes_per_interval, transient_rate)

    def _build_machine(self) -> KernelMachine:
        return MultiCoreSimulation(
            [NO_OPS] * (2 * self.cores),
            num_cores=self.cores,
            injector=self.injector,
        )

    def _workload_interval(self, k: int) -> None:
        for core in self.sim.cores:
            for thread, _ops, _cursor in core.queue:
                core.scheduler.switch_to(thread)  # ctx_save / ctx_restore
                self._dirty_window(thread, core.tracker, k)


# ---------------------------------------------------------------------- #
# Schedules
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class CrashSpec:
    """Where one schedule loses power: a cycle deadline or the N-th
    occurrence of a named protocol point."""

    kind: str  # "cycle" | "point"
    cycle: int = 0
    point: str = ""
    occurrence: int = 0

    def to_dict(self) -> dict:
        if self.kind == "cycle":
            return {"kind": "cycle", "cycle": self.cycle}
        return {"kind": "point", "point": self.point, "occurrence": self.occurrence}

    @classmethod
    def from_dict(cls, data: dict) -> "CrashSpec":
        if data["kind"] == "cycle":
            return cls("cycle", cycle=data["cycle"])
        return cls("point", point=data["point"], occurrence=data.get("occurrence", 0))


def expected_resumes(
    point: str | None, snapshots: int, staged_protocol: bool
) -> tuple:
    """The resume-legality rule: checkpoint indices recovery may resume
    from after a crash at *point* with *snapshots* golden snapshots taken.

    A target snapshots just before each checkpoint, so during checkpoint
    S-1's pipeline there are S snapshots: the crash may resolve to S-1
    (staging rolled forward) or S-2 (staging discarded).  A crash between
    checkpoints — a cycle deadline, a context switch, or power failing
    after the run (*point* None) — on a staged-protocol target must
    resume from S-1 exactly: a dropped commit marker is masked by
    replaying the durable staging buffer, and anything older is data loss.
    Interval-commit mechanisms have no replay: their newest commit record
    stays droppable until the next barrier, so S-2 stays legal.  Indices
    below zero mean "nothing committed yet" and collapse to None (fresh).
    """
    between = (
        point is None or is_cycle_point(point) or point in BETWEEN_CHECKPOINT_POINTS
    )
    if staged_protocol and between:
        candidates: tuple[int, ...] = (snapshots - 1,)
    else:
        candidates = (snapshots - 1, snapshots - 2)
    return tuple(dict.fromkeys(c if c >= 0 else None for c in candidates))


def classify_resume(resumed: int | None, snapshots: int) -> str:
    """Label a legal resume: the newest snapshot is ``rolled_forward``, an
    older one ``previous``, and None (nothing committed) ``fresh_start``."""
    if resumed is None:
        return "fresh_start"
    if resumed == snapshots - 1:
        return "rolled_forward"
    return "previous"


@dataclass
class ScheduleOutcome:
    """Everything one crash case did and whether it satisfied the oracle."""

    index: int
    mechanism: str
    engine: str
    spec: CrashSpec | None
    crashed: bool
    crash_point: str | None
    plan: PersistPlan | None
    applied: CrashOutcome | None
    snapshots: int
    resumed: int | None
    expected: tuple
    ok: bool
    detail: str

    @property
    def classification(self) -> str:
        if not self.ok:
            return "violation"
        if not self.crashed:
            return "no_crash"
        return classify_resume(self.resumed, self.snapshots)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "mechanism": self.mechanism,
            "engine": self.engine,
            "crash": self.spec.to_dict() if self.spec is not None else None,
            "crashed": self.crashed,
            "crash_point": self.crash_point,
            "plan": self.plan.to_dict() if self.plan is not None else None,
            "applied": self.applied.to_dict() if self.applied is not None else None,
            "snapshots": self.snapshots,
            "resumed": self.resumed,
            "expected": list(self.expected),
            "classification": self.classification,
            "ok": self.ok,
            "detail": self.detail,
        }


def probe(target: EngineTarget | KernelTarget) -> tuple[int, list[str]]:
    """Unarmed run: the total cycle count (the cycle-crash sample space)
    and every named point that fired, in order (the point-crash one)."""
    target.run()
    return target.cycles, list(target.injector.fired)


def run_crash(
    target: EngineTarget | KernelTarget,
    spec: CrashSpec | None,
    index: int = 0,
    plan_rng: random.Random | None = None,
    forced_plan: PersistPlan | None = None,
) -> ScheduleOutcome:
    """Crash *target* once, recover it and judge the result.

    Arms *spec* (None: power fails once the run is over), runs, resolves
    the persist plan — *forced_plan*, else one sampled from *plan_rng*,
    else the neat ``PersistPlan()`` — disarms, drops volatile state,
    recovers, and checks the resume index and the recovered state.
    """
    if spec is not None and spec.kind == "cycle":
        target.injector.arm_cycle(spec.cycle)
    elif spec is not None:
        target.injector.arm(spec.point, spec.occurrence)

    crash: CrashInjected | None = None
    try:
        target.run()
    except CrashInjected as exc:
        crash = exc

    snapshots = len(target.snapshots)
    if spec is not None and crash is None:
        # A cycle deadline past the end is no crash; a named point that
        # never fires means the target no longer reaches it.
        deadline = spec.kind == "cycle"
        return ScheduleOutcome(
            index, target.mechanism, target.engine_name, spec,
            crashed=False, crash_point=None, plan=None, applied=None,
            snapshots=snapshots, resumed=None, expected=(), ok=deadline,
            detail="crash never fired (deadline past end of trace)"
            if deadline else "armed crash point never fired",
        )

    # Power fails now: resolve which pending writes landed, drop all
    # volatile state, then recover from what is durably left.
    if forced_plan is not None:
        plan = forced_plan
    elif plan_rng is not None:
        plan = target.oracle.sample_plan(plan_rng)
    else:
        plan = PersistPlan()
    applied = target.oracle.apply_plan(plan)
    target.injector.disarm()
    target.drop_volatile()
    resumed = target.recover()

    point = crash.point if crash is not None else None
    expected = expected_resumes(point, snapshots, target.staged_protocol)
    problems: list[str] = []
    if resumed not in expected:
        problems.append(f"resumed from {resumed}, legal: {list(expected)}")
    if resumed is None or resumed < snapshots:
        problems.extend(target.check(resumed))
    return ScheduleOutcome(
        index, target.mechanism, target.engine_name, spec,
        crashed=True, crash_point=point, plan=plan, applied=applied,
        snapshots=snapshots, resumed=resumed, expected=expected,
        ok=not problems,
        detail="; ".join(problems) if problems
        else "recovered state matches the golden image",
    )


class GoldenRun:
    """The probe's unarmed run of one engine target, copied at every
    interval start after the first: the points schedules fork from.

    A copy is taken in :meth:`RecordingMechanism.on_interval_start`
    before the inner hook runs — after the previous checkpoint, before
    the next interval's hooks — so running the rest of the trace on it
    continues exactly as the golden run did.  The fresh machine is
    snapshot 0 and is not copied.  The run holds a strong reference to
    its trace, so the trace identity in its key stays valid.
    """

    def __init__(
        self,
        mechanism: str,
        engine_name: str,
        trace: np.ndarray,
        interval_ops: int,
    ) -> None:
        self.key = (mechanism, engine_name, interval_ops)
        self.trace = trace
        #: Interval-start copies, oldest first.  Never run: only forked.
        self.snapshots: list[EngineTarget] = []
        #: The target being probed, while it runs.
        self.recording: EngineTarget | None = None

    def matches(
        self,
        mechanism: str,
        engine_name: str,
        trace: np.ndarray,
        interval_ops: int,
    ) -> bool:
        return self.key == (mechanism, engine_name, interval_ops) and self.trace is trace

    def capture(self) -> None:
        """Copy the recording target (the copy does not record)."""
        target = self.recording
        start = target.engine.stats.ops_executed
        if start >= len(target.trace):
            return  # the trailing boundary: nothing left to resume
        snapshot = target.fork({id(self): None})
        snapshot.start_op = start
        self.snapshots.append(snapshot)

    def resume_point(self, spec: CrashSpec) -> EngineTarget | None:
        """The latest snapshot *spec* may resume from (None: the fresh
        machine).  A point spec (P, N) needs P to have fired at most N
        times at the snapshot; a cycle spec C needs the snapshot's clock
        below C.  Either way the crash still lies ahead of the snapshot,
        and the run up to it is the golden run's."""
        for snapshot in reversed(self.snapshots):
            if spec.kind == "cycle":
                legal = snapshot.cycles < spec.cycle
            else:
                legal = snapshot.injector.count(spec.point) <= spec.occurrence
            if legal:
                return snapshot
        return None


#: The latest :func:`_probe`'s golden run.  One slot: a campaign probes
#: one (mechanism, engine) target and then runs all of its schedules.
_golden: GoldenRun | None = None


def run_schedule(
    mechanism: str,
    engine_name: str,
    trace: np.ndarray,
    interval_ops: int,
    spec: CrashSpec,
    index: int = 0,
    plan_rng: random.Random | None = None,
    forced_plan: PersistPlan | None = None,
    weaken: bool = False,
) -> ScheduleOutcome:
    """One engine-target schedule end to end.  Without *forced_plan* the
    persist plan is sampled from *plan_rng* (``Random(0)`` when absent).

    When the latest :func:`_probe` ran this target, the schedule forks
    from the golden run's latest snapshot legal for *spec*; otherwise it
    runs on a fresh machine.  The outcome is the same either way."""
    golden = _golden
    resume_from = None
    if golden is not None and golden.matches(mechanism, engine_name, trace, interval_ops):
        resume_from = golden.resume_point(spec)
    target = build_setup(
        mechanism, engine_name, weaken=weaken, trace=trace,
        interval_ops=interval_ops, resume_from=resume_from,
    )
    if forced_plan is None and plan_rng is None:
        plan_rng = random.Random(0)
    return run_crash(target, spec, index, plan_rng, forced_plan)


def _probe(
    mechanism: str, engine_name: str, trace: np.ndarray, interval_ops: int
) -> tuple[int, list[str]]:
    """:func:`probe` of one (mechanism, engine) target running *trace*.
    Its golden run replaces the stored one, for :func:`run_schedule`."""
    global _golden
    target = build_setup(mechanism, engine_name, trace=trace, interval_ops=interval_ops)
    golden = GoldenRun(mechanism, engine_name, trace, interval_ops)
    golden.recording = target
    target.recorder.golden = golden
    try:
        result = probe(target)
    finally:
        target.recorder.golden = None
        golden.recording = None
    _golden = golden
    return result


# ---------------------------------------------------------------------- #
# Sweeps and demos
# ---------------------------------------------------------------------- #


@dataclass
class SweepReport:
    """Outcome of one exhaustive named-point sweep (:func:`run_sweep`)."""

    cases: list[ScheduleOutcome] = field(default_factory=list)

    @property
    def violations(self) -> list[ScheduleOutcome]:
        return [case for case in self.cases if not case.ok]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def points_swept(self) -> int:
        return len({case.spec.point for case in self.cases})

    def outcome_counts(self) -> dict[str, int]:
        return dict(Counter(case.classification for case in self.cases))

    def rows(self) -> list[tuple[str, int, int, int, int, int]]:
        """Per crash point, in first-fired order: (point, cases, rolled
        forward, previous, fresh start, violations)."""
        per_point: dict[str, Counter[str]] = {}
        for case in self.cases:
            per_point.setdefault(case.spec.point, Counter())[case.classification] += 1
        return [
            (point, sum(counts.values()), counts["rolled_forward"],
             counts["previous"], counts["fresh_start"], counts["violation"])
            for point, counts in per_point.items()
        ]


def run_sweep(make_target: Callable[[], EngineTarget | KernelTarget]) -> SweepReport:
    """Crash a fresh target at every (point, occurrence) its probe fired,
    under the neat plan, and judge each recovery."""
    _cycles, fired = probe(make_target())
    report = SweepReport()
    for point in dict.fromkeys(fired):
        for occurrence in range(fired.count(point)):
            spec = CrashSpec("point", point=point, occurrence=occurrence)
            report.cases.append(run_crash(make_target(), spec, len(report.cases)))
    return report


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
    retries are charged to the checkpoint's cycles, and recovery after
    power fails at the end must restore the last checkpoint exactly.
    """
    target = SingleCoreTarget(
        seed, threads, intervals, writes_per_interval, transient_rate
    )
    outcome = run_crash(target, None)
    return RetryDemoResult(
        checkpoints=outcome.snapshots,
        retries=sum(record.retries for record in target.sim.manager.checkpoints),
        resumed_from=outcome.resumed,
        state_ok=outcome.ok,
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
    target = SingleCoreTarget(
        seed, threads, intervals=2, writes_per_interval=writes_per_interval
    )
    target.injector.tear_metadata_at(1)
    # Crash at the commit-flag write of checkpoint 1 (its 2nd occurrence).
    spec = CrashSpec("point", point=COMMIT_FLAG_WRITE, occurrence=1)
    outcome = run_crash(target, spec)
    return TornMetadataDemoResult(
        resumed_from=outcome.resumed,
        discarded_staged=target.sim.manager.discarded_staged,
        state_ok=outcome.resumed == 0 and outcome.ok,
    )


# ---------------------------------------------------------------------- #
# Shrinking
# ---------------------------------------------------------------------- #


def shrink_plan(
    mechanism: str,
    engine_name: str,
    trace: np.ndarray,
    interval_ops: int,
    spec: CrashSpec,
    plan: PersistPlan,
    weaken: bool = False,
) -> PersistPlan:
    """Greedy ddmin-style reduction of a failing persist plan: drop the
    torn tail, then each dropped write, keeping only what is needed for
    the schedule to still violate the oracle.  Every candidate replays the
    full schedule deterministically with the candidate plan forced."""

    def still_fails(candidate: PersistPlan) -> bool:
        outcome = run_schedule(
            mechanism, engine_name, trace, interval_ops, spec,
            forced_plan=candidate, weaken=weaken,
        )
        return outcome.crashed and not outcome.ok

    current = plan
    changed = True
    while changed:
        changed = False
        if current.torn is not None:
            candidate = PersistPlan(current.dropped, None)
            if still_fails(candidate):
                current = candidate
                changed = True
                continue
        for label in sorted(current.dropped):
            candidate = PersistPlan(current.dropped - {label}, current.torn)
            if still_fails(candidate):
                current = candidate
                changed = True
                break
    return current


# ---------------------------------------------------------------------- #
# Campaigns
# ---------------------------------------------------------------------- #


@dataclass
class FuzzConfig:
    """One fuzzing campaign: *budget* schedules split evenly across the
    (mechanism, engine) grid, all derived from *seed*."""

    seed: int = 0
    budget: int = 256
    mechanisms: tuple[str, ...] = CONTENT_MECHANISMS
    engines: tuple[str, ...] = ENGINES
    ops: int = 1200
    intervals: int = 4
    weaken: bool = False  # test-only recovery mutant (prosper)
    shrink: bool = True
    only_schedule: int | None = None  # replay a single schedule index


def _point_family(point: str) -> str:
    """Protocol-step family of a named point (``stage_run_copy[17]`` ->
    ``stage_run_copy``)."""
    return point.split("[", 1)[0]


def _sample_spec(
    rng: random.Random, total_cycles: int, fired: list[str]
) -> CrashSpec:
    """Pick where this schedule crashes: 50/50 between an arbitrary cycle
    offset and a named protocol point (when the mechanism has any).

    Point crashes sample the protocol-step *family* uniformly first, then
    an occurrence within it — otherwise the many ``stage_run_copy[i]``
    firings would drown out the rare steps (``stage_complete``,
    ``persist_barrier``) where the most interesting pending sets live.
    """
    if fired and rng.random() < 0.5:
        families = sorted({_point_family(p) for p in fired})
        family = rng.choice(families)
        members = [i for i, p in enumerate(fired) if _point_family(p) == family]
        pick = rng.choice(members)
        point = fired[pick]
        occurrence = fired[:pick].count(point)
        return CrashSpec("point", point=point, occurrence=occurrence)
    return CrashSpec("cycle", cycle=rng.randint(1, max(1, total_cycles)))


def _schedule_rng(config: FuzzConfig, mechanism: str, engine: str, index: int):
    return random.Random(f"{config.seed}:{mechanism}:{engine}:{index}")


def _plan_rng(config: FuzzConfig, mechanism: str, engine: str, index: int):
    return random.Random(f"{config.seed}:{mechanism}:{engine}:{index}:plan")


def repro_command(config: FuzzConfig, mechanism: str, engine: str, index: int) -> str:
    """Exact CLI line that replays one schedule (see docs/FAULTS.md)."""
    line = (
        f"repro faults fuzz --seed {config.seed} --mechanism {mechanism} "
        f"--engine {engine} --ops {config.ops} --intervals {config.intervals} "
        f"--schedule {index}"
    )
    if config.weaken:
        line += " --weaken"
    return line


def run_campaign(config: FuzzConfig) -> dict:
    """Run the full campaign; returns the JSON-ready report."""
    for mechanism in config.mechanisms:
        if mechanism not in MECHANISMS:
            raise ValueError(f"unknown mechanism {mechanism!r}")
    for engine in config.engines:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
    if config.intervals <= 0:
        raise ValueError("intervals must be positive")
    if config.only_schedule is not None and config.only_schedule < 0:
        raise ValueError("schedule index must be non-negative")
    if config.ops < config.intervals:
        raise ValueError(
            f"ops ({config.ops}) must be at least intervals ({config.intervals})"
        )
    combos = [(m, e) for m in config.mechanisms for e in config.engines]
    if not combos:
        raise ValueError("need at least one mechanism and one engine")
    if config.budget < len(combos):
        raise ValueError(
            f"budget ({config.budget}) must cover every mechanism x engine "
            f"combination ({len(combos)})"
        )
    if config.weaken and config.mechanisms != ("prosper",):
        raise ValueError(
            "the weakened recovery mutant is prosper-only: pass --mechanism "
            "prosper alone"
        )

    trace = build_trace(config.seed, config.ops)
    interval_ops = config.ops // config.intervals
    per_combo = config.budget // len(combos)

    combo_reports: list[dict] = []
    violations: list[dict] = []
    total = 0
    for mechanism, engine in combos:
        total_cycles, fired = _probe(mechanism, engine, trace, interval_ops)
        classifications: Counter[str] = Counter()
        crash_kinds: Counter[str] = Counter()
        plan_kinds: Counter[str] = Counter()
        indices = (
            range(per_combo)
            if config.only_schedule is None
            else [config.only_schedule]
        )
        for index in indices:
            rng = _schedule_rng(config, mechanism, engine, index)
            spec = _sample_spec(rng, total_cycles, fired)
            outcome = run_schedule(
                mechanism, engine, trace, interval_ops, spec,
                index=index,
                plan_rng=_plan_rng(config, mechanism, engine, index),
                weaken=config.weaken,
            )
            total += 1
            classifications[outcome.classification] += 1
            if outcome.crashed:
                crash_kinds[spec.kind] += 1
                if outcome.plan is not None:
                    if outcome.plan.is_neat:
                        plan_kinds["neat"] += 1
                    else:
                        if outcome.plan.dropped:
                            plan_kinds["dropped"] += 1
                        if outcome.plan.torn is not None:
                            plan_kinds["torn"] += 1
            if not outcome.ok:
                entry = outcome.to_dict()
                if config.shrink and outcome.plan is not None:
                    shrunk = shrink_plan(
                        mechanism, engine, trace, interval_ops, spec,
                        outcome.plan, weaken=config.weaken,
                    )
                    entry["shrunk_plan"] = shrunk.to_dict()
                else:
                    entry["shrunk_plan"] = None
                entry["repro"] = repro_command(config, mechanism, engine, index)
                violations.append(entry)
        combo_reports.append(
            {
                "mechanism": mechanism,
                "engine": engine,
                "schedules": len(list(indices)) if config.only_schedule is not None else per_combo,
                "probe_cycles": total_cycles,
                "named_points": len(fired),
                "classifications": dict(classifications),
                "crash_kinds": dict(crash_kinds),
                "plan_kinds": dict(plan_kinds),
            }
        )

    return {
        "seed": config.seed,
        "budget": config.budget,
        "ops": config.ops,
        "intervals": config.intervals,
        "weakened": config.weaken,
        "schedules": total,
        "combos": combo_reports,
        "violations": violations,
        "ok": not violations,
    }
