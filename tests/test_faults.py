"""Tests for the fault-injection subsystem: crash-point injection, the
crash-consistency sweep, torn-record detection, and verified recovery."""

from functools import partial

import pytest

from repro.config import TrackerConfig, setup_i
from repro.core.checkpoint import ProsperCheckpointEngine
from repro.core.tracker import ProsperTracker
from repro.faults.injector import (
    COMMIT_FLAG_WRITE,
    PERSIST_BARRIER,
    STAGE_COMPLETE,
    CrashInjected,
    FaultInjector,
    stage_run_copy,
)
from repro.faults.fuzzer import (
    CrashSpec,
    MulticoreTarget,
    SingleCoreTarget,
    build_setup,
    build_trace,
    classify_resume,
    expected_resumes,
    run_crash,
    run_schedule,
    run_sweep,
    torn_metadata_demo,
    transient_retry_demo,
)
from repro.faults.nvm_errors import WRITE_OK, WRITE_TORN, NvmErrorModel
from repro.kernel.checkpoint_mgr import CheckpointManager
from repro.kernel.process import Process
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.image import ByteImage


class TestFaultInjector:
    def test_unarmed_injector_only_records(self):
        inj = FaultInjector()
        for _ in range(3):
            inj.reached("stage_begin")
        assert inj.fired == ["stage_begin"] * 3
        assert inj.occurrences()["stage_begin"] == 3

    def test_armed_point_fires_at_requested_occurrence(self):
        inj = FaultInjector()
        inj.arm("stage_begin", occurrence=2)
        inj.reached("stage_begin")
        inj.reached("stage_begin")
        with pytest.raises(CrashInjected) as exc:
            inj.reached("stage_begin")
        assert exc.value.point == "stage_begin"
        assert exc.value.occurrence == 2

    def test_disarm_and_reset(self):
        inj = FaultInjector()
        inj.arm("metadata_write")
        inj.disarm()
        inj.reached("metadata_write")  # no crash
        inj.reset()
        assert inj.fired == []
        assert inj.occurrences()["metadata_write"] == 0

    def test_negative_occurrence_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector().arm("stage_begin", occurrence=-1)

    def test_torn_metadata_plan(self):
        inj = FaultInjector()
        inj.tear_metadata_at(1, 3)
        assert inj.should_tear_metadata(1)
        assert not inj.should_tear_metadata(2)


def make_world(injector=None, with_images=False):
    """One persistent thread + manager, two dirty clusters per interval."""
    proc = Process()
    thread = proc.spawn_thread(stack_bytes=1 << 20, persistent=True)
    thread.registers.stack_pointer = thread.stack.end - 65536
    hierarchy = MemoryHierarchy(setup_i())
    tracker = ProsperTracker(proc.tracker_config)
    tracker.configure(thread.bitmap)
    dram = {thread.tid: ByteImage()} if with_images else None
    nvm = {thread.tid: ByteImage()} if with_images else None
    mgr = CheckpointManager(
        proc,
        hierarchy,
        tracker,
        injector=injector,
        dram_images=dram,
        nvm_images=nvm,
    )
    return proc, tracker, mgr


def dirty_two_runs(proc, tracker, mgr, op_index, value=0):
    """Dirty two well-separated clusters (two staged runs per checkpoint)."""
    thread = proc.thread(1)
    sp = thread.registers.stack_pointer
    for address in (sp + 8, sp + 8192):
        tracker.observe_store(address, 8)
        if mgr.dram_images is not None:
            mgr.dram_images[thread.tid].write(address, value)
    thread.registers.op_index = op_index
    tracker.request_flush()
    tracker.poll_quiescent()


class TestPartialStagingNotPromoted:
    """Regression for the roll-forward guard: a crash mid-staging leaves a
    *partial* staging buffer, which recovery must discard — the old
    ``dirty_runs is not None`` check promoted it unconditionally."""

    def test_crash_mid_run_copy_falls_back(self):
        inj = FaultInjector()
        proc, tracker, mgr = make_world(injector=inj)
        dirty_two_runs(proc, tracker, mgr, op_index=111)
        mgr.checkpoint_process()  # sequence 0, committed

        dirty_two_runs(proc, tracker, mgr, op_index=222)
        # Crash before the 2nd run of checkpoint 1 is staged (occurrence 1:
        # checkpoint 0 already fired stage_run_copy[1] once).
        inj.arm(stage_run_copy(1), occurrence=1)
        with pytest.raises(CrashInjected):
            mgr.checkpoint_process()

        mgr.crash()
        report = mgr.recover()
        # The half-staged checkpoint 1 must NOT be promoted.
        assert report.resumed_from_sequence == 0
        assert not report.rolled_forward
        assert proc.thread(1).registers.op_index == 111
        assert mgr.discarded_staged == 1
        assert mgr.discarded_intervals == {1}
        assert not mgr.checkpoints[1].committed

    def test_crash_after_staging_complete_rolls_forward(self):
        inj = FaultInjector()
        proc, tracker, mgr = make_world(injector=inj)
        dirty_two_runs(proc, tracker, mgr, op_index=111)
        mgr.checkpoint_process()

        dirty_two_runs(proc, tracker, mgr, op_index=222)
        inj.arm(STAGE_COMPLETE, occurrence=1)
        with pytest.raises(CrashInjected):
            mgr.checkpoint_process()

        mgr.crash()
        report = mgr.recover()
        assert report.rolled_forward
        assert report.resumed_from_sequence == 1
        assert proc.thread(1).registers.op_index == 222


class TestTornRecordDetection:
    def test_torn_metadata_discards_staging(self):
        inj = FaultInjector()
        inj.tear_metadata_at(1)
        proc, tracker, mgr = make_world(injector=inj)
        dirty_two_runs(proc, tracker, mgr, op_index=111)
        mgr.checkpoint_process()

        dirty_two_runs(proc, tracker, mgr, op_index=222)
        inj.arm(COMMIT_FLAG_WRITE, occurrence=1)  # fully staged, flag unflipped
        with pytest.raises(CrashInjected):
            mgr.checkpoint_process()
        mgr.crash()
        report = mgr.recover()
        # Staging is complete, but the metadata CRC fails: fall back.
        assert report.resumed_from_sequence == 0
        assert proc.thread(1).registers.op_index == 111
        assert mgr.discarded_staged == 1

    def test_torn_staged_run_detected_by_checksum(self):
        region_tracker = ProsperTracker(TrackerConfig())
        proc = Process()
        thread = proc.spawn_thread(stack_bytes=1 << 20, persistent=True)
        region_tracker.configure(thread.bitmap)
        hierarchy = MemoryHierarchy(setup_i())

        class TornOnce(NvmErrorModel):
            def __init__(self):
                super().__init__()
                self._queue = [(WRITE_TORN, None)]

            def draw_write(self):
                return self._queue.pop(0) if self._queue else (WRITE_OK, None)

        hierarchy.nvm.error_model = TornOnce()
        engine = ProsperCheckpointEngine(region_tracker, thread.bitmap, hierarchy)
        region_tracker.observe_store(thread.stack.end - 64, 8)
        engine.stage(0)
        staged = engine.staging.staged
        assert staged is not None and staged.complete
        assert not staged.verify()  # the tear corrupted a staged run
        assert engine.staging.recover() is None  # discarded, nothing committed
        assert engine.staging.staged is None


class TestDirtybitMediaTears:
    @staticmethod
    def _recover_after_crash(point, torn_write_rate):
        target = build_setup(
            "dirtybit", "scalar", trace=build_trace(0, 200), interval_ops=100
        )
        target.engine.hierarchy.nvm.error_model = NvmErrorModel(
            torn_write_rate=torn_write_rate
        )
        # Power fails once interval 0 is fully staged and copied.
        target.injector.arm(point)
        with pytest.raises(CrashInjected):
            target.run()
        staging = target.inner.staging
        assert staging.staged is not None and staging.staged.complete
        return staging.recover(), staging.staged

    @pytest.mark.parametrize("point", [STAGE_COMPLETE, PERSIST_BARRIER])
    def test_torn_staged_copy_is_discarded(self, point):
        # Every media write tears, so the staged copy's last run is
        # corrupt and only its checksum can tell.  On clean media the same
        # crash rolls the staging forward.
        assert self._recover_after_crash(point, 0.0)[0] == 0
        assert self._recover_after_crash(point, 1.0) == (None, None)


class TestRecoveryMemoryRestoration:
    def test_recover_restores_stack_contents(self):
        proc, tracker, mgr = make_world(with_images=True)
        thread = proc.thread(1)
        sp = thread.registers.stack_pointer
        dirty_two_runs(proc, tracker, mgr, op_index=42, value=0xDEAD)
        mgr.checkpoint_process()

        mgr.crash()
        assert mgr.dram_images[thread.tid].read(sp + 8) == 0  # DRAM died
        report = mgr.recover()
        assert report.resumed_from_sequence == 0
        # Contents, not just registers, came back from the NVM image.
        assert mgr.dram_images[thread.tid].read(sp + 8) == 0xDEAD
        assert mgr.dram_images[thread.tid].read(sp + 8192) == 0xDEAD


def legal_labels(point, crashed_in):
    """Legal resumes and their labels for a kernel-target crash at *point*
    while checkpoint *crashed_in* was the newest one snapshotted."""
    snapshots = crashed_in + 1
    return {
        resumed: classify_resume(resumed, snapshots)
        for resumed in expected_resumes(point, snapshots, staged_protocol=True)
    }


class TestSweep:
    def test_small_sweep_has_zero_violations(self):
        report = run_sweep(
            partial(SingleCoreTarget, seed=0, threads=2, intervals=2, writes_per_interval=2)
        )
        assert report.ok, [v.detail for v in report.violations]
        # Every protocol family shows up, including per-run copy points.
        points = {case.spec.point for case in report.cases}
        assert {
            "metadata_write",
            "stage_begin",
            "stage_run_copy[0]",
            "stage_run_copy[1]",
            "stage_complete",
            "commit_flag_write",
            "persist_barrier",
            "bitmap_clear",
        } <= points
        outcomes = {case.classification for case in report.cases}
        assert "rolled_forward" in outcomes
        assert "previous" in outcomes

    def test_sweep_is_deterministic(self):
        make_target = partial(
            SingleCoreTarget, seed=5, threads=1, intervals=2, writes_per_interval=2
        )
        assert run_sweep(make_target).cases == run_sweep(make_target).cases

    def test_sweep_under_transient_errors_still_consistent(self):
        report = run_sweep(partial(
            SingleCoreTarget,
            seed=1,
            threads=1,
            intervals=2,
            writes_per_interval=2,
            transient_rate=0.2,
        ))
        assert report.ok, [v.detail for v in report.violations]

    def test_resume_legality_rule(self):
        # Inside checkpoint k: k, k - 1, or pristine when k = 0.
        assert legal_labels("commit_flag_write", 2) == {
            2: "rolled_forward",
            1: "previous",
        }
        assert legal_labels("stage_begin", 0) == {
            0: "rolled_forward",
            None: "fresh_start",
        }
        # Between checkpoints: only the latest committed one (or pristine).
        assert legal_labels("ctx_save", 1) == {1: "rolled_forward"}
        assert legal_labels("ctx_restore", -1) == {None: "fresh_start"}

    def test_legality_rule_between_checkpoints_depends_on_protocol(self):
        # A cycle crash, or power failing after the run, is between
        # checkpoints: a staged protocol replays the newest one, while an
        # interval-commit record may still be lost.
        assert expected_resumes("cycle[500]", 3, staged_protocol=True) == (2,)
        assert expected_resumes(None, 3, staged_protocol=True) == (2,)
        assert expected_resumes("cycle[500]", 3, staged_protocol=False) == (2, 1)
        assert expected_resumes("cycle[5]", 1, staged_protocol=False) == (0, None)

    def test_point_that_never_fires_is_a_violation_on_both_targets(self):
        spec = CrashSpec("point", point="no_such_point")
        kernel = run_crash(SingleCoreTarget(intervals=1, writes_per_interval=1), spec)
        engine = run_schedule("prosper", "scalar", build_trace(0, 200), 100, spec)
        for outcome in (kernel, engine):
            assert not outcome.crashed and not outcome.ok
            assert outcome.classification == "violation"
            assert outcome.detail == "armed crash point never fired"

    def test_cycle_deadline_past_the_end_is_no_crash_on_kernel_target(self):
        # Kernel quanta never poll the cycle deadline: nothing fires.
        spec = CrashSpec("cycle", cycle=1)
        outcome = run_crash(SingleCoreTarget(intervals=1, writes_per_interval=1), spec)
        assert not outcome.crashed and outcome.ok
        assert outcome.classification == "no_crash"

    def test_transient_retry_demo_accounts_retries(self):
        result = transient_retry_demo(seed=0)
        assert result.retries > 0
        assert result.resumed_from == result.checkpoints - 1
        assert result.state_ok

    def test_torn_metadata_demo_detects_and_falls_back(self):
        result = torn_metadata_demo(seed=0)
        assert result.detected
        assert result.resumed_from == 0
        assert result.state_ok


#: Per-point (point, cases, rolled fwd, previous, fresh, violations) rows of
#: ``repro faults sweep --intervals 2 --writes 3 --multicore`` at seed 0.
SINGLE_CORE_ROWS = [
    ("metadata_write", 2, 0, 1, 1, 0),
    ("stage_begin", 4, 0, 2, 2, 0),
    ("stage_run_copy[0]", 4, 0, 2, 2, 0),
    ("stage_run_copy[1]", 4, 0, 2, 2, 0),
    ("stage_run_copy[2]", 4, 0, 2, 2, 0),
    ("stage_complete", 4, 2, 1, 1, 0),
    ("commit_flag_write", 2, 2, 0, 0, 0),
    ("persist_barrier", 4, 4, 0, 0, 0),
    ("bitmap_clear", 4, 4, 0, 0, 0),
]
MULTICORE_ROWS = [
    ("ctx_save", 6, 4, 0, 2, 0),
    ("barrier_quiesce", 4, 0, 2, 2, 0),
    ("metadata_write", 2, 0, 1, 1, 0),
    ("stage_begin", 8, 0, 4, 4, 0),
    ("stage_run_copy[0]", 8, 0, 4, 4, 0),
    ("stage_run_copy[1]", 8, 0, 4, 4, 0),
    ("stage_run_copy[2]", 8, 0, 4, 4, 0),
    ("stage_complete", 8, 2, 3, 3, 0),
    ("commit_flag_write", 2, 2, 0, 0, 0),
    ("persist_barrier", 8, 8, 0, 0, 0),
    ("bitmap_clear", 8, 8, 0, 0, 0),
    ("ctx_restore", 4, 4, 0, 0, 0),
]


class TestSweepPins:
    def test_single_core_sweep_rows(self):
        report = run_sweep(
            partial(SingleCoreTarget, seed=0, intervals=2, writes_per_interval=3)
        )
        assert report.rows() == SINGLE_CORE_ROWS

    def test_multicore_sweep_rows(self):
        report = run_sweep(
            partial(MulticoreTarget, seed=0, intervals=2, writes_per_interval=3)
        )
        assert report.rows() == MULTICORE_ROWS


class TestFaultsCli:
    def test_faults_sweep_subcommand(self, capsys):
        from repro.cli import main

        code = main(
            ["faults", "sweep", "--intervals", "1", "--writes", "2", "--no-demos"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0 invariant violation(s)" in out
        assert "stage_run_copy[0]" in out

    def test_faults_sweep_multicore_prints_both_sweeps(self, capsys):
        from repro.cli import main

        code = main(
            [
                "faults", "sweep", "--intervals", "1", "--writes", "2",
                "--multicore", "--no-demos",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Crash-consistency sweep (seed 0, 2 threads, 1 intervals)" in out
        assert "Multicore crash sweep (seed 0, 2 cores, 1 intervals)" in out
        assert any(line.startswith("ctx_save ") for line in out.splitlines())
        assert out.count("0 invariant violation(s)") == 2

    def test_faults_sweep_rejects_zero_cores(self, capsys):
        from repro.cli import main

        code = main(["faults", "sweep", "--multicore", "--cores", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "repro faults sweep: error:" in captured.err

    def test_list_mentions_faults(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        assert "faults" in capsys.readouterr().out
