"""Tests for the crash-schedule fuzzer: golden-image verification over
randomized crash schedules, the weakened-recovery mutant catch, shrinking,
and campaign determinism."""

import random

import numpy as np
import pytest

from repro.faults import fuzzer
from repro.faults.fuzzer import (
    CONTENT_MECHANISMS,
    INTERVAL_MECHANISMS,
    CrashSpec,
    FuzzConfig,
    build_setup,
    build_trace,
    run_campaign,
    run_crash,
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
        assert np.array_equal(build_trace(7, 200), build_trace(7, 200))
        assert not np.array_equal(build_trace(7, 200), build_trace(8, 200))

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
        # Rejected before the first probe, not after a silently
        # shrunken or over-budget campaign.
        for bad in (
            FuzzConfig(ops=0),
            FuzzConfig(ops=-5),
            FuzzConfig(ops=10, intervals=20),
            FuzzConfig(budget=3),
            FuzzConfig(mechanisms=(), budget=4),
            FuzzConfig(weaken=True),
            FuzzConfig(mechanisms=("prosper", "dirtybit"), weaken=True),
        ):
            with pytest.raises(ValueError):
                run_campaign(bad)

    def test_bad_arguments_fail_before_the_first_probe(self, monkeypatch):
        import repro.faults.fuzzer as fuzzer

        def probe(*args, **kwargs):
            raise AssertionError("probed a rejected campaign")

        monkeypatch.setattr(fuzzer, "_probe", probe)
        with pytest.raises(ValueError, match="prosper-only"):
            run_campaign(FuzzConfig(weaken=True))
        with pytest.raises(ValueError, match="budget"):
            run_campaign(FuzzConfig(budget=3))

    def test_cli_rejects_negative_schedule(self, capsys):
        from repro.cli import main

        code = main(["faults", "fuzz", "--schedule", "-5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("repro faults fuzz: error:")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["--ops", "0"],
            ["--ops", "-5"],
            ["--ops", "10", "--intervals", "20"],
            ["--budget", "3"],
            ["--weaken"],
        ],
        ids=["ops-zero", "ops-negative", "ops-below-intervals", "budget-below-grid",
             "weaken-default-mechanisms"],
    )
    def test_cli_rejects_unrunnable_campaigns(self, capsys, argv):
        from repro.cli import main

        code = main(["faults", "fuzz", *argv])
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


def _forked_and_scratch_outcomes(config):
    """Every schedule of *config*'s campaign twice: forked from the golden
    run (``run_schedule`` after ``_probe``, as ``run_campaign`` runs it)
    and from scratch (``run_crash`` on a fresh ``build_setup`` target),
    with the same spec and plan RNG.  Also counts the forked ones."""
    trace = build_trace(config.seed, config.ops)
    interval_ops = max(1, config.ops // config.intervals)
    combos = [(m, e) for m in config.mechanisms for e in config.engines]
    per_combo = max(1, config.budget // len(combos))
    pairs, forked = [], 0
    for mechanism, engine in combos:
        total_cycles, fired = fuzzer._probe(mechanism, engine, trace, interval_ops)
        for index in range(per_combo):
            spec = fuzzer._sample_spec(
                fuzzer._schedule_rng(config, mechanism, engine, index),
                total_cycles, fired,
            )
            forked += fuzzer._golden.resume_point(spec) is not None
            fork = run_schedule(
                mechanism, engine, trace, interval_ops, spec, index=index,
                plan_rng=fuzzer._plan_rng(config, mechanism, engine, index),
                weaken=config.weaken,
            )
            scratch = run_crash(
                build_setup(
                    mechanism, engine, weaken=config.weaken, trace=trace,
                    interval_ops=interval_ops,
                ),
                spec, index, fuzzer._plan_rng(config, mechanism, engine, index),
            )
            pairs.append((fork.to_dict(), scratch.to_dict()))
    return pairs, forked


class TestForkedSchedules:
    """A schedule forked from the probe's interval snapshot must produce
    exactly the outcome of the same schedule run from scratch."""

    @pytest.mark.parametrize(
        "config",
        [
            FuzzConfig(seed=2026, budget=512, ops=OPS, intervals=INTERVALS),
            FuzzConfig(
                seed=5, budget=32, mechanisms=INTERVAL_MECHANISMS,
                engines=("scalar",), ops=500, intervals=INTERVALS,
            ),
            FuzzConfig(
                seed=3, budget=60, mechanisms=("prosper",), engines=("scalar",),
                ops=OPS, intervals=INTERVALS, weaken=True,
            ),
        ],
        ids=["acceptance", "interval-mechanisms", "weakened"],
    )
    def test_forked_equals_scratch(self, config):
        pairs, forked = _forked_and_scratch_outcomes(config)
        for fork, scratch in pairs:
            assert fork == scratch
        # Most schedules crash past the first interval boundary, so the
        # comparison covers real forks, not fresh machines.
        assert forked >= len(pairs) // 2
        if config.weaken:
            assert any(not fork["ok"] for fork, _ in pairs)

    def test_no_golden_run_for_another_target(self):
        trace = _trace()
        fuzzer._probe("prosper", "scalar", trace, INTERVAL_OPS)
        assert len(fuzzer._golden.snapshots) == INTERVALS - 1
        assert fuzzer._golden.matches("prosper", "scalar", trace, INTERVAL_OPS)
        assert not fuzzer._golden.matches("prosper", "scalar", _trace(), INTERVAL_OPS)
        assert not fuzzer._golden.matches("dirtybit", "scalar", trace, INTERVAL_OPS)

    def test_legality_rule(self):
        trace = _trace()
        total, fired = fuzzer._probe("prosper", "scalar", trace, INTERVAL_OPS)
        golden = fuzzer._golden
        first, last = golden.snapshots
        assert (first.start_op, last.start_op) == (INTERVAL_OPS, 2 * INTERVAL_OPS)
        # A cycle crash resumes from the latest snapshot strictly before it.
        assert golden.resume_point(CrashSpec("cycle", cycle=first.cycles)) is None
        assert golden.resume_point(CrashSpec("cycle", cycle=first.cycles + 1)) is first
        assert golden.resume_point(CrashSpec("cycle", cycle=total)) is last
        # Checkpoint k's STAGE_COMPLETE has fired k times at snapshot k.
        for k, expected in enumerate((None, first, last)):
            spec = CrashSpec("point", point=STAGE_COMPLETE, occurrence=k)
            assert golden.resume_point(spec) is expected
        assert fired.count(STAGE_COMPLETE) == INTERVALS

    def test_fork_drops_per_instance_hook_wrappers(self):
        # A profiler may wrap hooks on one machine's instances; a wrapper
        # is a closure over that machine, so a fork runs the class hooks.
        trace = _trace()
        target = build_setup("prosper", "scalar", trace=trace, interval_ops=INTERVAL_OPS)
        calls = []
        for owner, name in (
            (target.recorder, "on_interval_end"),
            (target.inner.checkpoint_engine, "checkpoint"),
        ):
            def wrapper(*args, _original=getattr(owner, name), _name=name):
                calls.append(_name)
                return _original(*args)

            setattr(owner, name, wrapper)
        fork = target.fork()
        assert "on_interval_end" not in vars(fork.recorder)
        assert "checkpoint" not in vars(fork.inner.checkpoint_engine)
        fork.run()
        assert calls == []
        assert len(fork.snapshots) == INTERVALS
        assert fork.inner.staging.last_committed_interval == INTERVALS - 1

    @pytest.mark.parametrize("mechanism", ["prosper", "dirtybit", "ssp"])
    def test_forks_are_isolated(self, mechanism):
        # Crash one fork with a plan that drops and tears what it can, and
        # recover it; a second fork of the same snapshot must still match
        # the from-scratch outcome.  A callback left pointing at the golden
        # machine would act on that machine instead of the fork.
        trace = _trace()
        fuzzer._probe(mechanism, "scalar", trace, INTERVAL_OPS)
        snapshot = fuzzer._golden.snapshots[-1]
        # Early in the last interval the previous commit is still pending;
        # at the last STAGE_COMPLETE the staged runs are.
        specs = [CrashSpec("cycle", cycle=snapshot.cycles + 100)]
        if mechanism in CONTENT_MECHANISMS:
            specs.append(CrashSpec("point", point=STAGE_COMPLETE, occurrence=2))
        for spec in specs:
            assert fuzzer._golden.resume_point(spec) is snapshot
            reference, first = (
                build_setup(
                    mechanism, "scalar", trace=trace, interval_ops=INTERVAL_OPS,
                    resume_from=resume_from,
                )
                for resume_from in (None, snapshot)
            )
            _crash(reference, spec)
            labels = reference.oracle.pending_labels()
            tearable = [label for label in labels if ".stage_run[" in label]
            plan = PersistPlan(
                frozenset(label for label in labels if label not in tearable[-1:]),
                tearable[-1] if tearable else None,
            )
            assert plan.dropped
            reference.oracle.apply_plan(plan)

            _crash(first, spec)
            first.oracle.apply_plan(plan)
            assert _durable_state(first) == _durable_state(reference)
            first.injector.disarm()
            first.drop_volatile()
            assert first.recover() == reference.recover()
            assert _durable_state(first) == _durable_state(reference)

            # The neat plan rolls a complete staging forward on recovery,
            # through the fork's content writer.
            second, scratch = (
                build_setup(
                    mechanism, "scalar", trace=trace, interval_ops=INTERVAL_OPS,
                    resume_from=resume_from,
                )
                for resume_from in (snapshot, None)
            )
            assert (
                run_crash(second, spec, forced_plan=PersistPlan()).to_dict()
                == run_crash(scratch, spec, forced_plan=PersistPlan()).to_dict()
            )


def _crash(target, spec):
    """Run *target* into the crash *spec* names."""
    if spec.kind == "cycle":
        target.injector.arm_cycle(spec.cycle)
    else:
        target.injector.arm(spec.point, spec.occurrence)
    with pytest.raises(CrashInjected):
        target.run()


def _durable_state(target):
    """What a target holds durably: its staging and persistent image, or
    its interval-commit records."""
    if not target.staged_protocol:
        return list(target.recorder.commits)
    staging = target.inner.staging
    staged = staging.staged
    return (
        staging.last_committed_interval,
        staged and (staged.interval_index, staged.committed, staged.complete, staged.verify()),
        sorted(target.durable.iter_words()),
    )
