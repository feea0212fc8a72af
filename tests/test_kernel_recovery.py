"""Kernel-target recovery under forced persist plans, pinned case by case,
and crashed kernel targets copied with ``copy.deepcopy``.

The pin crashes each kernel target (seed 0, two intervals, three writes)
at every (point, occurrence) its probe fired, under the neat plan, under
each pending undoable write dropped alone and under each pending tearable
write torn alone.  Each case's ``(resumed, rolled_forward,
threads_restored, discarded_staged)`` row feeds one SHA-256, so any change
to the recovery rule shows up; ``TestSweepPins`` in ``test_faults.py``
covers the neat plans only.

A deep copy of a crashed target must be a machine of its own: every
persist-order callback and content hook it holds acts on the copy, so the
copy recovers exactly like a fresh run and the original stays untouched.
"""

import copy
import hashlib
import json
from functools import partial

import pytest

from repro.core.bitmap import DirtyRun
from repro.faults.fuzzer import (
    CrashSpec,
    MulticoreTarget,
    SingleCoreTarget,
    probe,
    run_crash,
)
from repro.faults.injector import STAGE_COMPLETE, CrashInjected
from repro.faults.order import PersistPlan


def _crashed(make_target, spec):
    """A fresh target crashed at *spec*, its pending writes unresolved."""
    target = make_target()
    target.injector.arm(spec.point, spec.occurrence)
    with pytest.raises(CrashInjected):
        target.run()
    return target


def _plans(pending):
    """The neat plan, each undoable write dropped alone, each tearable
    write torn alone."""
    plans = [PersistPlan()]
    plans += [PersistPlan(frozenset({w.label})) for w in pending if w.undo]
    plans += [PersistPlan(frozenset(), w.label) for w in pending if w.tear]
    return plans


def _recovery_rows(make_target):
    _cycles, fired = probe(make_target())
    rows = []
    for point in dict.fromkeys(fired):
        for occurrence in range(fired.count(point)):
            spec = CrashSpec("point", point=point, occurrence=occurrence)
            for plan in _plans(_crashed(make_target, spec).oracle.pending):
                target = make_target()
                outcome = run_crash(target, spec, forced_plan=plan)
                assert outcome.ok, (spec, plan, outcome.detail)
                report = target.report
                rows.append([
                    point, occurrence, plan.to_dict(),
                    report.resumed_from_sequence, report.rolled_forward,
                    report.threads_restored,
                    target.sim.manager.discarded_staged,
                ])
    return rows


SINGLE_CORE = partial(SingleCoreTarget, seed=0, intervals=2, writes_per_interval=3)
MULTICORE = partial(MulticoreTarget, seed=0, intervals=2, writes_per_interval=3)

#: (cases, rolled-forward cases, SHA-256 of the rows as sorted-key JSON).
RECOVERY_PINS = {
    "single": (
        158, 17,
        "29191e7fccad7770921c335f5de8181abd0885314983db5ce6afd504c6038d3a",
    ),
    "multicore": (
        477, 43,
        "56e453f352a07ba27572d5f6a10d85551126a58f913e322770c8353a16c5128f",
    ),
}


class TestRecoveryPins:
    @pytest.mark.parametrize(
        "name,make_target", [("single", SINGLE_CORE), ("multicore", MULTICORE)]
    )
    def test_forced_plan_recoveries_match_pin(self, name, make_target):
        rows = _recovery_rows(make_target)
        digest = hashlib.sha256(
            json.dumps(rows, sort_keys=True).encode()
        ).hexdigest()
        rolled = sum(1 for row in rows if row[4])
        assert (len(rows), rolled, digest) == RECOVERY_PINS[name]


def _fingerprint(target):
    """Everything recovery reads or writes on *target*."""
    sim = target.sim
    return (
        [(r.sequence, r.committed, r.metadata_crc) for r in sim.manager.checkpoints],
        [
            (
                engine.staging.last_committed_interval,
                None if staged is None else (
                    staged.interval_index, staged.committed,
                    staged.descriptor_lost, staged.expected_runs,
                    [(s.run, s.crc, s.payload) for s in staged.staged_runs],
                ),
            )
            for engine in sim.manager._engines.values()
            for staged in [engine.staging.staged]
        ],
        {tid: sorted(image.iter_words()) for tid, image in sim.dram_images.items()},
        {tid: sorted(image.iter_words()) for tid, image in sim.nvm_images.items()},
        [
            (t.tid, t.registers.op_index, t.registers.stack_pointer)
            for t in sim.process.iter_threads()
        ],
    )


def _finish(target, plan):
    """The rest of :func:`run_crash` on an already crashed target."""
    target.oracle.apply_plan(plan)
    target.injector.disarm()
    target.drop_volatile()
    return target.recover()


class TestDeepcopyOfCrashedKernelTargets:
    # Occurrence 1 of stage_complete: checkpoint 0 is fully staged on the
    # single-core target, half staged on the multicore one; the metadata
    # record and the staged runs are all still pending.
    SPEC = CrashSpec("point", point=STAGE_COMPLETE, occurrence=1)

    @pytest.mark.parametrize("make_target", [SINGLE_CORE, MULTICORE])
    def test_copy_recovers_like_a_fresh_run_and_leaves_original(self, make_target):
        original = _crashed(make_target, self.SPEC)
        before = _fingerprint(original)
        pending = original.oracle.pending
        labels = [w.label for w in pending]
        assert "proc[0].metadata" in labels
        runs = [label for label in labels if ".stage_run[" in label]
        plans = [
            PersistPlan(frozenset({"proc[0].metadata"})),
            PersistPlan(frozenset(), "proc[0].metadata"),
            PersistPlan(frozenset({runs[0]})),
            PersistPlan(frozenset(), runs[-1]),
        ]
        for plan in plans:
            fork = copy.deepcopy(original)
            resumed = _finish(fork, plan)
            fresh = make_target()
            outcome = run_crash(fresh, self.SPEC, forced_plan=plan)
            assert outcome.ok
            assert resumed == outcome.resumed
            assert fork.report == fresh.report
            assert fork.check(resumed) == []
            assert _fingerprint(fork) == _fingerprint(fresh)
            assert _fingerprint(original) == before

    @pytest.mark.parametrize("make_target", [SINGLE_CORE, MULTICORE])
    def test_copy_reads_its_own_stack_images(self, make_target):
        original = _crashed(make_target, self.SPEC)
        fork = copy.deepcopy(original)
        for image in fork.sim.dram_images.values():
            image.clear()
        for tid, engine in fork.sim.manager._engines.items():
            stack = fork.sim.process.threads[tid].stack
            run = DirtyRun(stack.start, stack.end)
            assert list(engine.staging.content_reader(run)) == []
            assert list(original.sim.manager._engines[tid].staging.content_reader(run))


class TestTrustCompletenessMutant:
    def test_kernel_recovery_applies_the_mutant_like_staging_recover(self):
        # A torn staged run blocks the roll-forward.  The test-only mutant
        # trusts completeness alone, on the kernel path as in
        # StagingBuffer.recover, so the torn checkpoint rolls forward and
        # the state check sees the corruption.
        spec = TestDeepcopyOfCrashedKernelTargets.SPEC
        outcomes = []
        for weaken in (False, True):
            target = _crashed(SINGLE_CORE, spec)
            runs = [w.label for w in target.oracle.pending if ".stage_run[" in w.label]
            for engine in target.sim.manager._engines.values():
                engine.staging.unsafe_trust_completeness = weaken
            resumed = _finish(target, PersistPlan(frozenset(), runs[-1]))
            outcomes.append((resumed, target.check(resumed) == []))
        assert outcomes == [(None, True), (0, False)]
