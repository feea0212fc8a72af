"""Torn-write detection at recovery time, in the kernel world.

A power cut can tear any write still pending behind the last persist
barrier.  These tests crash the kernel target's checkpoint protocol
mid-staging, force a persist plan that tears one specific record, and
assert that recovery *detects* the tear via CRC32, degrades to the
previous committed checkpoint (or pristine state), and never raises out
of ``CheckpointManager.recover``."""

import pytest

from repro.faults.fuzzer import CrashSpec, SingleCoreTarget, run_crash
from repro.faults.injector import STAGE_COMPLETE, CrashInjected
from repro.faults.order import PersistPlan


def _target():
    """The 2-thread single-core kernel target, three checkpoints."""
    return SingleCoreTarget(seed=0, threads=2, intervals=3, writes_per_interval=4)


def _crash(point: str, occurrence: int, plan: PersistPlan):
    """Crash a fresh target at the armed point under the forced *plan*.

    Returns the recovered target and the outcome, whose ``applied.pending``
    holds exactly the writes issued since the last persist barrier.
    """
    target = _target()
    spec = CrashSpec("point", point=point, occurrence=occurrence)
    return target, run_crash(target, spec, forced_plan=plan)


def _pending_stage_runs(point: str, occurrence: int):
    outcome = _crash(point, occurrence, PersistPlan())[1]
    return [label for label in outcome.applied.pending if ".stage_run[" in label]


class TestTornMetadataRecord:
    # With 2 threads, stage_complete occurrence 1 is checkpoint 0's second
    # thread: both threads have fully staged, the metadata record and every
    # staged run are pending (the commit-flag barrier has not run yet).
    POINT, OCCURRENCE = STAGE_COMPLETE, 1

    def test_neat_power_loss_rolls_checkpoint_forward(self):
        # Control: with nothing torn, the completed staging is promotable
        # and recovery rolls checkpoint 0 forward.
        target, outcome = _crash(self.POINT, self.OCCURRENCE, PersistPlan())
        assert "proc[0].metadata" in outcome.applied.pending
        assert outcome.resumed == 0
        assert target.report.rolled_forward
        assert target.check(0) == []

    def test_torn_metadata_is_caught_and_discarded(self):
        # Same crash, but the metadata record tore mid-line.  Its CRC32
        # fails, the otherwise-complete staging must NOT roll forward, and
        # recovery lands on the pristine state without raising.
        plan = PersistPlan(frozenset(), "proc[0].metadata")
        target, outcome = _crash(self.POINT, self.OCCURRENCE, plan)
        assert outcome.resumed is None
        assert not target.report.rolled_forward
        assert target.check(None) == []


class TestTornStagedRun:
    def test_torn_run_blocks_roll_forward_of_checkpoint_zero(self):
        # Tear one staged run instead of the metadata: the staged-run
        # checksum fails, so the staging is incomplete and pristine wins.
        torn = _pending_stage_runs(STAGE_COMPLETE, 1)[-1]
        target, outcome = _crash(STAGE_COMPLETE, 1, PersistPlan(frozenset(), torn))
        assert outcome.resumed is None
        assert target.check(None) == []

    def test_torn_run_rolls_back_to_previous_checkpoint(self):
        # Crash while thread 2 stages checkpoint 1 (occurrence 3 =
        # checkpoint*threads + thread index).  Checkpoint 0 is committed;
        # tearing a checkpoint-1 staged run must roll back to it, exactly —
        # no blend of the two epochs.
        runs = _pending_stage_runs(STAGE_COMPLETE, 3)
        assert runs and all(label.startswith("t2.ckpt[1].") for label in runs)
        target, outcome = _crash(
            STAGE_COMPLETE, 3, PersistPlan(frozenset(), runs[-1])
        )
        assert outcome.resumed == 0
        assert not target.report.rolled_forward
        assert target.check(0) == []

    def test_recover_never_raises_on_any_single_tear(self):
        # Robustness sweep: every pending write at the crash, torn (or,
        # when it carries no contents, dropped) one at a time.  Recovery
        # must always terminate with a legal checkpoint.
        target = _target()
        target.injector.arm(STAGE_COMPLETE, 3)
        with pytest.raises(CrashInjected):
            target.run()
        for record in list(target.oracle.pending):
            plan = (
                PersistPlan(frozenset(), record.label)
                if record.tear is not None
                else PersistPlan(frozenset({record.label}), None)
                if record.undo is not None
                else PersistPlan()
            )
            target, outcome = _crash(STAGE_COMPLETE, 3, plan)
            assert outcome.resumed in (None, 0, 1)
            assert target.check(outcome.resumed) == []
