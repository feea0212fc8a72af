"""Tests for the multicore crash sweep: context switches and barriers.

The single-core workload of ``repro.faults.sweep`` (tests/test_faults.py)
covers the staging/commit protocol; these tests drive the same module's
multicore workload (``MulticoreCrashChecker``), which covers the crash
surfaces only a running scheduler reaches — tracker save/restore inside a
context switch and the stop-the-world quiesce barrier — and assert
recovery never blends per-thread checkpoint epochs.
"""

from __future__ import annotations

import pytest

from repro.faults.injector import (
    BARRIER_QUIESCE,
    CRASH_POINT_FAMILIES,
    CTX_RESTORE,
    CTX_SAVE,
    CrashInjected,
    FaultInjector,
)
from repro.faults.sweep import (
    OUTCOME_VIOLATION,
    MulticoreCrashChecker,
    _MulticoreScenario,
)


@pytest.fixture(scope="module")
def checker() -> MulticoreCrashChecker:
    return MulticoreCrashChecker(seed=0, cores=2, intervals=2, writes_per_interval=2)


@pytest.fixture(scope="module")
def points(checker) -> list[tuple[str, int]]:
    return checker.enumerate_points()


class TestEnumeration:
    def test_ctx_and_barrier_points_fire(self, points):
        names = {point for point, _ in points}
        assert CTX_SAVE in names
        assert CTX_RESTORE in names
        assert BARRIER_QUIESCE in names

    def test_staging_protocol_points_also_covered(self, points):
        names = {point for point, _ in points}
        assert "metadata_write" in names
        assert "commit_flag_write" in names

    def test_new_points_are_documented_families(self):
        assert CTX_SAVE in CRASH_POINT_FAMILIES
        assert CTX_RESTORE in CRASH_POINT_FAMILIES
        assert BARRIER_QUIESCE in CRASH_POINT_FAMILIES

    def test_barrier_fires_once_per_core_per_checkpoint(self, points):
        count = sum(1 for point, _ in points if point == BARRIER_QUIESCE)
        # 2 cores x 2 checkpoints = 4 quiesce crossings.
        assert count == 4


class TestSweep:
    def test_full_sweep_has_no_violations(self, checker):
        report = checker.run()
        assert report.cases, "sweep enumerated no cases"
        assert report.ok, [case.detail for case in report.violations]

    def test_ctx_save_crash_restores_latest_checkpoint(self, checker, points):
        occurrences = [occ for point, occ in points if point == CTX_SAVE]
        assert occurrences
        # The last ctx_save fires after checkpoint 0 committed; recovery
        # must restore checkpoint 0 exactly, not fresh state.
        case = checker.run_case(CTX_SAVE, occurrences[-1])
        assert case.ok, case.detail
        assert case.resumed_from == 0

    def test_ctx_restore_crash_recovers(self, checker, points):
        occurrences = [occ for point, occ in points if point == CTX_RESTORE]
        assert occurrences
        case = checker.run_case(CTX_RESTORE, occurrences[0])
        assert case.ok, case.detail

    def test_barrier_crash_falls_back_to_previous(self, checker, points):
        occurrences = [occ for point, occ in points if point == BARRIER_QUIESCE]
        # A barrier crash happens before any staging of the in-flight
        # checkpoint, so roll-forward is impossible.
        for occurrence in occurrences:
            case = checker.run_case(BARRIER_QUIESCE, occurrence)
            assert case.ok, case.detail
            assert case.outcome in ("previous", "fresh_start")


class TestBlendDetection:
    """The invariant check itself must be able to catch blends."""

    def test_mismatched_epoch_is_detected(self):
        checker = MulticoreCrashChecker(
            seed=0, cores=2, intervals=2, writes_per_interval=2
        )
        scenario = checker._scenario(None)
        scenario.run()
        scenario.sim.crash()
        report = scenario.sim.recover()
        resumed = report.resumed_from_sequence
        assert resumed == 1
        # Exact match against the restored checkpoint...
        assert scenario.state_mismatch(resumed) is None
        # ...and a definite mismatch against the other epoch: if recovery
        # ever blended epochs, at least one of these comparisons would
        # wrongly succeed.
        assert scenario.state_mismatch(0) is not None

    def test_hand_blended_state_is_flagged(self):
        """Corrupt one thread's restored stack word; the check must fire."""
        checker = MulticoreCrashChecker(
            seed=0, cores=2, intervals=2, writes_per_interval=2
        )
        scenario = checker._scenario(None)
        scenario.run()
        scenario.sim.crash()
        report = scenario.sim.recover()
        resumed = report.resumed_from_sequence
        victim = next(iter(scenario.sp))
        address = scenario.sp[victim]
        stale = scenario.mem_at[0][victim][address]  # epoch-0 value
        scenario.dram_images[victim].write(address, stale)
        mismatch = scenario.state_mismatch(resumed)
        assert mismatch is not None
        assert "blend or data loss" in mismatch


class TestScenarioDeterminism:
    def test_probe_and_armed_runs_align(self):
        """The armed run must reach the same points as the probe."""
        checker = MulticoreCrashChecker(
            seed=3, cores=2, intervals=2, writes_per_interval=2
        )
        probe_points = checker.enumerate_points()
        injector = FaultInjector(3)
        injector.arm(CTX_SAVE, 0)
        scenario = _MulticoreScenario(3, 2, 2, 2, injector)
        with pytest.raises(CrashInjected):
            scenario.run()
        fired_before_crash = injector.fired
        probe_names = [point for point, _ in probe_points]
        assert set(fired_before_crash) <= set(probe_names)

    def test_violation_cases_would_carry_detail(self, checker):
        report = checker.run()
        for case in report.cases:
            if case.outcome == OUTCOME_VIOLATION:
                assert case.detail
