"""Torn-write detection at recovery time, in the kernel world.

A power cut can tear any write still pending behind the last persist
barrier.  These tests crash the multicore checkpoint protocol mid-staging,
apply a persist plan that tears one specific record, and assert that
recovery *detects* the tear via CRC32, degrades to the previous committed
checkpoint (or pristine state), and never raises out of
``CrashSimulator.recover``."""

import pytest

from repro.faults.injector import STAGE_COMPLETE, CrashInjected, FaultInjector
from repro.faults.order import PersistOrderOracle, PersistPlan
from repro.faults.sweep import _SweepScenario


def _crashed_scenario(point: str, occurrence: int):
    """Run the 2-thread sweep workload until the armed crash point fires.

    Returns the scenario plus its persist-order oracle, whose pending set
    holds exactly the writes issued since the last persist barrier.
    """
    injector = FaultInjector(0)
    injector.arm(point, occurrence)
    scenario = _SweepScenario(
        seed=0,
        threads=2,
        intervals=3,
        writes_per_interval=4,
        transient_rate=0.0,
        injector=injector,
    )
    oracle = PersistOrderOracle()
    scenario.sim.hierarchy.nvm.order_oracle = oracle
    with pytest.raises(CrashInjected):
        scenario.run()
    return scenario, oracle


def _pending_stage_runs(oracle):
    return [label for label in oracle.pending_labels() if ".stage_run[" in label]


class TestTornMetadataRecord:
    # With 2 threads, stage_complete occurrence 1 is checkpoint 0's second
    # thread: both threads have fully staged, the metadata record and every
    # staged run are pending (the commit-flag barrier has not run yet).
    POINT, OCCURRENCE = STAGE_COMPLETE, 1

    def test_neat_power_loss_rolls_checkpoint_forward(self):
        # Control: with nothing torn, the completed staging is promotable
        # and recovery rolls checkpoint 0 forward.
        scenario, oracle = _crashed_scenario(self.POINT, self.OCCURRENCE)
        assert "proc[0].metadata" in oracle.pending_labels()
        scenario.sim.crash_sim.crash(order_oracle=oracle, plan=PersistPlan())
        report = scenario.sim.crash_sim.recover()
        assert report.resumed_from_sequence == 0
        assert report.rolled_forward
        assert scenario.state_mismatch(0) is None

    def test_torn_metadata_is_caught_and_discarded(self):
        # Same crash, but the metadata record tore mid-line.  Its CRC32
        # fails, the otherwise-complete staging must NOT roll forward, and
        # recovery lands on the pristine state without raising.
        scenario, oracle = _crashed_scenario(self.POINT, self.OCCURRENCE)
        plan = PersistPlan(frozenset(), "proc[0].metadata")
        scenario.sim.crash_sim.crash(order_oracle=oracle, plan=plan)
        report = scenario.sim.crash_sim.recover()
        assert report.resumed_from_sequence is None
        assert not report.rolled_forward
        assert scenario.state_mismatch(None) is None


class TestTornStagedRun:
    def test_torn_run_blocks_roll_forward_of_checkpoint_zero(self):
        # Tear one staged run instead of the metadata: the staged-run
        # checksum fails, so the staging is incomplete and pristine wins.
        scenario, oracle = _crashed_scenario(STAGE_COMPLETE, 1)
        torn = _pending_stage_runs(oracle)[-1]
        scenario.sim.crash_sim.crash(
            order_oracle=oracle, plan=PersistPlan(frozenset(), torn)
        )
        report = scenario.sim.crash_sim.recover()
        assert report.resumed_from_sequence is None
        assert scenario.state_mismatch(None) is None

    def test_torn_run_rolls_back_to_previous_checkpoint(self):
        # Crash while thread 2 stages checkpoint 1 (occurrence 3 =
        # checkpoint*threads + thread index).  Checkpoint 0 is committed;
        # tearing a checkpoint-1 staged run must roll back to it, exactly —
        # no blend of the two epochs.
        scenario, oracle = _crashed_scenario(STAGE_COMPLETE, 3)
        runs = _pending_stage_runs(oracle)
        assert runs and all(label.startswith("t2.ckpt[1].") for label in runs)
        scenario.sim.crash_sim.crash(
            order_oracle=oracle, plan=PersistPlan(frozenset(), runs[-1])
        )
        report = scenario.sim.crash_sim.recover()
        assert report.resumed_from_sequence == 0
        assert not report.rolled_forward
        assert scenario.state_mismatch(0) is None

    def test_recover_never_raises_on_any_single_tear(self):
        # Robustness sweep: every pending label at the crash, torn one at
        # a time.  Recovery must always terminate with a legal checkpoint.
        scenario, oracle = _crashed_scenario(STAGE_COMPLETE, 3)
        labels = list(oracle.pending_labels())
        for torn in labels:
            scenario, oracle = _crashed_scenario(STAGE_COMPLETE, 3)
            record = next(
                (r for r in oracle.pending if r.label == torn), None
            )
            plan = (
                PersistPlan(frozenset(), torn)
                if record is not None and record.tear is not None
                else PersistPlan(frozenset({torn}), None)
                if record is not None and record.undo is not None
                else PersistPlan()
            )
            scenario.sim.crash_sim.crash(order_oracle=oracle, plan=plan)
            report = scenario.sim.crash_sim.recover()
            assert report.resumed_from_sequence in (None, 0, 1)
            assert scenario.state_mismatch(report.resumed_from_sequence) is None
