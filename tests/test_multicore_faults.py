"""Tests for the multicore crash sweep: context switches and barriers.

The single-core kernel target (tests/test_faults.py) covers the
staging/commit protocol; these tests drive the multicore kernel target
(``MulticoreTarget``) through the shared crash runner, which covers the
crash surfaces only a running scheduler reaches — tracker save/restore
inside a context switch and the stop-the-world quiesce barrier — and
assert recovery never blends per-thread checkpoint epochs.
"""

from __future__ import annotations

from collections import Counter
from functools import partial

import pytest

from repro.faults.fuzzer import (
    CrashSpec,
    MulticoreTarget,
    probe,
    run_crash,
    run_sweep,
)
from repro.faults.injector import (
    BARRIER_QUIESCE,
    CRASH_POINT_FAMILIES,
    CTX_RESTORE,
    CTX_SAVE,
    CrashInjected,
)


def probed_points(make_target) -> list[tuple[str, int]]:
    """Every (point, occurrence) a probe of the target fires."""
    _cycles, fired = probe(make_target())
    return [
        (point, occurrence)
        for point, count in Counter(fired).items()
        for occurrence in range(count)
    ]


def run_point(make_target, point: str, occurrence: int):
    return run_crash(
        make_target(), CrashSpec("point", point=point, occurrence=occurrence)
    )


@pytest.fixture(scope="module")
def make_target():
    return partial(MulticoreTarget, seed=0, cores=2, intervals=2, writes_per_interval=2)


@pytest.fixture(scope="module")
def points(make_target) -> list[tuple[str, int]]:
    return probed_points(make_target)


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
    def test_full_sweep_has_no_violations(self, make_target):
        report = run_sweep(make_target)
        assert report.cases, "sweep enumerated no cases"
        assert report.ok, [case.detail for case in report.violations]

    def test_ctx_save_crash_restores_latest_checkpoint(self, make_target, points):
        occurrences = [occ for point, occ in points if point == CTX_SAVE]
        assert occurrences
        # The last ctx_save fires after checkpoint 0 committed; recovery
        # must restore checkpoint 0 exactly, not fresh state.
        case = run_point(make_target, CTX_SAVE, occurrences[-1])
        assert case.ok, case.detail
        assert case.resumed == 0

    def test_ctx_restore_crash_recovers(self, make_target, points):
        occurrences = [occ for point, occ in points if point == CTX_RESTORE]
        assert occurrences
        case = run_point(make_target, CTX_RESTORE, occurrences[0])
        assert case.ok, case.detail

    def test_barrier_crash_falls_back_to_previous(self, make_target, points):
        occurrences = [occ for point, occ in points if point == BARRIER_QUIESCE]
        # A barrier crash happens before any staging of the in-flight
        # checkpoint, so roll-forward is impossible.
        for occurrence in occurrences:
            case = run_point(make_target, BARRIER_QUIESCE, occurrence)
            assert case.ok, case.detail
            assert case.classification in ("previous", "fresh_start")


class TestTransientErrors:
    RATE = 0.25

    def test_checkpoints_retry_under_the_rate(self):
        target = MulticoreTarget(
            seed=0, cores=2, intervals=2, writes_per_interval=3,
            transient_rate=self.RATE,
        )
        target.run()
        assert sum(record.retries for record in target.sim.manager.checkpoints) > 0

    def test_sweep_under_transient_errors_has_no_violations(self):
        report = run_sweep(partial(
            MulticoreTarget, seed=0, cores=2, intervals=2, writes_per_interval=3,
            transient_rate=self.RATE,
        ))
        assert report.cases
        assert report.ok, [case.detail for case in report.violations]


class TestBlendDetection:
    """The invariant check itself must be able to catch blends."""

    def test_mismatched_epoch_is_detected(self, make_target):
        target = make_target()
        target.run()
        target.drop_volatile()
        resumed = target.recover()
        assert resumed == 1
        # Exact match against the restored checkpoint...
        assert target.check(resumed) == []
        # ...and a definite mismatch against the other epoch: if recovery
        # ever blended epochs, at least one of these comparisons would
        # wrongly succeed.
        assert target.check(0) != []

    def test_hand_blended_state_is_flagged(self, make_target):
        """Corrupt one thread's restored stack word; the check must fire."""
        target = make_target()
        target.run()
        target.drop_volatile()
        resumed = target.recover()
        victim = next(iter(target.sp))
        address = target.sp[victim]
        stale = target.snapshots[0].words[victim][address]  # epoch-0 value
        target.sim.dram_images[victim].write(address, stale)
        problems = target.check(resumed)
        assert problems
        assert "blend or data loss" in problems[0]


class TestScenarioDeterminism:
    def test_probe_and_armed_runs_align(self):
        """The armed run must reach the same points as the probe."""
        make_target = partial(
            MulticoreTarget, seed=3, cores=2, intervals=2, writes_per_interval=2
        )
        probe_points = probed_points(make_target)
        target = make_target()
        target.injector.arm(CTX_SAVE, 0)
        with pytest.raises(CrashInjected):
            target.run()
        fired_before_crash = target.injector.fired
        probe_names = [point for point, _ in probe_points]
        assert set(fired_before_crash) <= set(probe_names)

    def test_violation_cases_would_carry_detail(self, make_target):
        report = run_sweep(make_target)
        for case in report.cases:
            if case.classification == "violation":
                assert case.detail
