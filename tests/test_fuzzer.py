"""Tests for the crash-schedule fuzzer: golden-image verification over
randomized crash schedules, the weakened-recovery mutant catch, shrinking,
and campaign determinism."""

import random

import pytest

from repro.faults.fuzzer import (
    CONTENT_MECHANISMS,
    INTERVAL_MECHANISMS,
    CrashSpec,
    FuzzConfig,
    build_setup,
    build_trace,
    run_campaign,
    run_schedule,
    shrink_plan,
)
from repro.faults.injector import STAGE_COMPLETE, CrashInjected
from repro.faults.order import PersistPlan

#: Small, fast workload shared by the targeted tests.
OPS = 600
INTERVALS = 3
INTERVAL_OPS = OPS // INTERVALS


def _trace(seed=0):
    return build_trace(seed, OPS)


class TestTrace:
    def test_deterministic(self):
        assert build_trace(7, 200) == build_trace(7, 200)
        assert build_trace(7, 200) != build_trace(8, 200)

    def test_requested_length(self):
        assert len(build_trace(0, 321)) == 321


class TestAcceptanceCampaign:
    def test_500_schedules_content_mechanisms_both_engines(self):
        # The headline acceptance criterion: a seeded campaign of >= 500
        # schedules across prosper and dirtybit under both engines, every
        # recovered state matching the golden image.
        report = run_campaign(
            FuzzConfig(seed=2026, budget=512, ops=OPS, intervals=INTERVALS)
        )
        assert report["ok"], report["violations"][:1]
        assert report["schedules"] >= 500
        combos = {(c["mechanism"], c["engine"]) for c in report["combos"]}
        assert combos == {
            (m, e)
            for m in ("prosper", "dirtybit")
            for e in ("scalar", "batched")
        }
        # The campaign must actually exercise both crash axes and
        # non-neat persist plans, or it is not testing the new model.
        kinds = {k for c in report["combos"] for k in c["crash_kinds"]}
        assert kinds == {"cycle", "point"}
        assert any(c["plan_kinds"].get("dropped") for c in report["combos"])
        assert any(c["plan_kinds"].get("torn") for c in report["combos"])

    def test_interval_mechanisms_hold_their_oracle(self):
        report = run_campaign(
            FuzzConfig(
                seed=5,
                budget=32,
                mechanisms=INTERVAL_MECHANISMS,
                engines=("scalar",),
                ops=500,
                intervals=INTERVALS,
            )
        )
        assert report["ok"], report["violations"][:1]

    def test_campaign_is_deterministic(self):
        config = FuzzConfig(seed=13, budget=16, ops=OPS, intervals=INTERVALS)
        assert run_campaign(config) == run_campaign(config)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_campaign(FuzzConfig(mechanisms=("nope",)))
        with pytest.raises(ValueError):
            run_campaign(FuzzConfig(engines=("gpu",)))
        with pytest.raises(ValueError):
            run_campaign(FuzzConfig(budget=0))
        with pytest.raises(ValueError):
            run_campaign(FuzzConfig(only_schedule=-5))

    def test_cli_rejects_negative_schedule(self, capsys):
        from repro.cli import main

        code = main(["faults", "fuzz", "--schedule", "-5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("repro faults fuzz: error:")
        assert captured.err.count("\n") == 1


#: Per-combo classification counts of the CI campaign,
#: ``repro faults fuzz --seed 2026 --budget 64 --ops 600 --intervals 3``.
CI_CAMPAIGN_CLASSIFICATIONS = {
    ("prosper", "scalar"): {
        "rolled_forward": 7, "previous": 4, "fresh_start": 4, "no_crash": 1,
    },
    ("prosper", "batched"): {
        "rolled_forward": 2, "previous": 4, "fresh_start": 8, "no_crash": 2,
    },
    ("dirtybit", "scalar"): {
        "rolled_forward": 4, "previous": 5, "fresh_start": 6, "no_crash": 1,
    },
    ("dirtybit", "batched"): {
        "rolled_forward": 5, "previous": 5, "fresh_start": 4, "no_crash": 2,
    },
}


class TestCampaignPins:
    def test_ci_campaign_classifications(self):
        report = run_campaign(
            FuzzConfig(seed=2026, budget=64, ops=600, intervals=3)
        )
        assert report["ok"]
        got = {
            (combo["mechanism"], combo["engine"]): combo["classifications"]
            for combo in report["combos"]
        }
        assert got == CI_CAMPAIGN_CLASSIFICATIONS


class TestWeakenedRecoveryMutant:
    """A deliberately broken commit protocol must be *caught*: recovery
    that trusts staging completeness without re-checking the CRCs rolls a
    torn staged tail forward, and the golden image flags it."""

    def test_campaign_catches_the_mutant(self):
        report = run_campaign(
            FuzzConfig(
                seed=3,
                budget=60,
                mechanisms=("prosper",),
                engines=("scalar",),
                ops=OPS,
                intervals=INTERVALS,
                weaken=True,
            )
        )
        assert not report["ok"]
        violation = report["violations"][0]
        assert "durable" in violation["detail"]
        # The shrinker reduced the failing plan to its essence: one torn
        # staged run, nothing dropped.
        shrunk = violation["shrunk_plan"]
        assert shrunk["dropped"] == []
        assert shrunk["torn"] is not None and ".stage_run[" in shrunk["torn"]
        assert "--schedule" in violation["repro"]
        assert "--weaken" in violation["repro"]

    def test_torn_staged_run_targeted(self):
        # Deterministic core of the mutant catch: crash at the second
        # checkpoint's stage_complete with the last staged run torn.
        trace = _trace()
        spec = CrashSpec("point", point=STAGE_COMPLETE, occurrence=1)

        def torn_plan(setup):
            labels = [
                label
                for label in setup.oracle.pending_labels()
                if ".stage_run[" in label
            ]
            return PersistPlan(frozenset(), labels[-1])

        # Find the concrete torn label by running the schedule once.
        probe = build_setup("prosper", "scalar")
        probe.injector.arm(STAGE_COMPLETE, 1)
        with pytest.raises(CrashInjected):
            probe.engine.run(trace, interval_ops=INTERVAL_OPS)
        plan = torn_plan(probe)

        # Correct recovery: CRC catches the tear, previous checkpoint wins.
        good = run_schedule(
            "prosper", "scalar", trace, INTERVAL_OPS, spec, forced_plan=plan
        )
        assert good.crashed and good.ok
        assert good.resumed == good.snapshots - 2

        # Mutant recovery: the torn tail rolls forward and is flagged.
        bad = run_schedule(
            "prosper", "scalar", trace, INTERVAL_OPS, spec,
            forced_plan=plan, weaken=True,
        )
        assert bad.crashed and not bad.ok
        assert "durable" in bad.detail

        # And the already-minimal plan shrinks to itself.
        shrunk = shrink_plan(
            "prosper", "scalar", trace, INTERVAL_OPS, spec, plan, weaken=True
        )
        assert shrunk == plan

    def test_weaken_is_prosper_only(self):
        with pytest.raises(ValueError):
            build_setup("dirtybit", "scalar", weaken=True)


class TestScheduleSemantics:
    @pytest.mark.parametrize("mechanism", CONTENT_MECHANISMS)
    def test_dropped_commit_marker_is_masked_by_replay(self, mechanism):
        # Mid-interval crash: the only pending write is the previous
        # checkpoint's commit marker.  Dropping it must not lose the
        # checkpoint — recovery replays the durable staging buffer.
        trace = _trace()
        setup = build_setup(mechanism, "scalar")
        setup.injector.arm_cycle(10**18)  # never fires; probe total cycles
        setup.engine.run(trace, interval_ops=INTERVAL_OPS)
        total = setup.engine.now

        spec = CrashSpec("cycle", cycle=int(total * 0.55))
        outcome = run_schedule(
            mechanism, "scalar", trace, INTERVAL_OPS, spec,
            plan_rng=random.Random(99),
        )
        assert outcome.crashed and outcome.ok
        assert outcome.resumed == outcome.snapshots - 1

    def test_deadline_past_end_is_a_clean_no_crash(self):
        trace = _trace()
        spec = CrashSpec("cycle", cycle=10**18)
        outcome = run_schedule("prosper", "scalar", trace, INTERVAL_OPS, spec)
        assert not outcome.crashed and outcome.ok
        assert outcome.classification == "no_crash"

    def test_schedule_replay_is_deterministic(self):
        trace = _trace()
        spec = CrashSpec("point", point=STAGE_COMPLETE, occurrence=1)
        a = run_schedule(
            "prosper", "scalar", trace, INTERVAL_OPS, spec,
            plan_rng=random.Random(4),
        )
        b = run_schedule(
            "prosper", "scalar", trace, INTERVAL_OPS, spec,
            plan_rng=random.Random(4),
        )
        assert a.to_dict() == b.to_dict()
