"""The engines keep every mechanism's ledger (``MechanismStats``).

Hooks act and return cycles.  Both engines count each interval end before
``on_interval_end`` runs, append what it returns to ``checkpoint_cycles``
and book what ``on_load``/``on_store``/``on_store_batch`` return as
``inline_overhead_cycles``; a mechanism appends only ``checkpoint_bytes``.
So after an uncrashed run, on either engine:

* the region mechanisms' ``inline_overhead_cycles`` sum to the engine's
  ``inline_cycles``;
* each mechanism has one ``checkpoint_cycles`` entry per interval (a 0
  for a mechanism with no checkpoint, such as vanilla);
* the mechanisms' ``checkpoint_cycles`` sum to the interval records'.

The scalar engine also calls a hook only where the mechanism's class
defines it, as the batched engine does.
"""

from __future__ import annotations

import pytest

from repro.config import WORD_BITS
from repro.cpu.engine import ExecutionEngine, trace_array
from repro.cpu.engine_fast import BatchedExecutionEngine
from repro.cpu.ops import Op, OpKind
from repro.experiments.runner import fixed_cost_scale_for, vanilla_cycles
from repro.faults.injector import PERSIST_BARRIER, CrashInjected, FaultInjector
from repro.kernel.simulation import MultiThreadSimulation
from repro.persistence.adaptive import AdaptiveProsperPersistence
from repro.persistence.base import PersistenceMechanism
from repro.persistence.dirtybit import DirtyBitPersistence
from repro.persistence.logging import (
    FlushPersistence,
    RedoLogPersistence,
    UndoLogPersistence,
)
from repro.persistence.none import NoPersistence
from repro.persistence.prosper import ProsperPersistence
from repro.persistence.romulus import RomulusPersistence
from repro.persistence.ssp import SspPersistence
from repro.persistence.writeprotect import WriteProtectPersistence
from repro.workloads.apps import gapbs_pr, ycsb_mem

ENGINES = [ExecutionEngine, BatchedExecutionEngine]

#: Every mechanism in ``repro.persistence``.
STACK_MECHANISMS = {
    "base": PersistenceMechanism,
    "vanilla": NoPersistence,
    "prosper": ProsperPersistence,
    "prosper-adaptive": AdaptiveProsperPersistence,
    "dirtybit": DirtyBitPersistence,
    "writeprotect": WriteProtectPersistence,
    "romulus": RomulusPersistence,
    "ssp-10us": lambda: SspPersistence(10.0),
    "flush": FlushPersistence,
    "undo": UndoLogPersistence,
    "redo": RedoLogPersistence,
}

#: Figure 9's stack + heap combinations: SSP protects the heap.
FIG9_PAIRS = {
    "ssp": (lambda: SspPersistence(10.0), lambda: SspPersistence(10.0)),
    "ssp+dirtybit": (DirtyBitPersistence, lambda: SspPersistence(10.0)),
    "ssp+prosper": (ProsperPersistence, lambda: SspPersistence(10.0)),
}


def _run(engine_cls, trace, stack_factory, heap_factory=None):
    """*trace* on *engine_cls* with about six cycle intervals and the fixed
    costs scaled to the trace clock, as the figures scale them."""
    base = vanilla_cycles(trace)
    engine = engine_cls(
        stack_range=trace.stack_range,
        mechanism=stack_factory(),
        heap_range=trace.heap_range,
        heap_mechanism=heap_factory() if heap_factory is not None else None,
        fixed_cost_scale=fixed_cost_scale_for(base),
    )
    engine.run(trace, interval_cycles=base // 6)
    return engine


def _assert_ledger(engine) -> None:
    mechs = [m for m in (engine.mechanism, engine.heap_mechanism) if m is not None]
    stats = engine.stats
    assert len(stats.intervals) > 1
    assert sum(m.stats.inline_overhead_cycles for m in mechs) == stats.inline_cycles
    for mech in mechs:
        assert len(mech.stats.checkpoint_cycles) == mech.stats.intervals
        assert mech.stats.intervals == len(stats.intervals)
    assert sum(m.stats.total_checkpoint_cycles for m in mechs) == sum(
        record.checkpoint_cycles for record in stats.intervals
    )


@pytest.fixture(scope="module")
def traces():
    return {"ycsb_mem": ycsb_mem(6_000, seed=7), "gapbs_pr": gapbs_pr(6_000, seed=7)}


class TestLedgerIdentities:
    @pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("name", sorted(STACK_MECHANISMS))
    @pytest.mark.parametrize("trace_name", ["ycsb_mem", "gapbs_pr"])
    def test_stack_mechanism(self, traces, trace_name, name, engine_cls):
        engine = _run(engine_cls, traces[trace_name], STACK_MECHANISMS[name])
        _assert_ledger(engine)

    @pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("combo", sorted(FIG9_PAIRS))
    def test_fig9_pair(self, traces, combo, engine_cls):
        engine = _run(engine_cls, traces["ycsb_mem"], *FIG9_PAIRS[combo])
        _assert_ledger(engine)
        assert engine.heap_mechanism.stats.inline_overhead_cycles > 0

    def test_costly_hooks_reach_the_ledger(self, traces):
        # The identities above would hold vacuously if nothing were
        # charged: these runs charge inline cycles through a batched
        # delivery (Prosper) and through per-op hooks (the rest).
        for name in ("prosper", "romulus", "ssp-10us", "flush", "undo", "redo"):
            for engine_cls in ENGINES:
                engine = _run(engine_cls, traces["gapbs_pr"], STACK_MECHANISMS[name])
                assert engine.mechanism.stats.inline_overhead_cycles > 0, name

    @pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda c: c.__name__)
    def test_kernel_tracker(self, engine_cls):
        # One thread whose stores touch more bitmap words per slice than
        # the lookup table holds, so the tracker charges interference.
        sim = MultiThreadSimulation(
            [[Op(OpKind.COMPUTE, size=1)]], quantum_ops=200,
            checkpoint_every_quanta=2,
        )
        core = sim.cores[0]
        thread = core.queue[0][0]
        words = 4 * sim.process.tracker_config.lookup_table_entries
        word_bytes = WORD_BITS * sim.process.tracker_config.granularity_bytes
        frame = words * word_bytes
        base = thread.stack.end - frame
        ops = [Op(OpKind.CALL, size=frame)]
        for _ in range(3):
            ops += [Op(OpKind.WRITE, base + k * word_bytes, 8) for k in range(words)]
        core.queue = [(thread, trace_array(ops), 0)]
        if engine_cls is ExecutionEngine:
            # The scalar engine takes the core's place over the same
            # tracker mechanism and hierarchy.
            batched = core.engine
            core.engine = ExecutionEngine(sim.config, mechanism=batched.mechanism)
            core.engine.hierarchy = batched.hierarchy
        sim.run()
        engine = core.engine
        assert engine.stats.inline_cycles > 0
        assert engine.mechanism.stats.inline_overhead_cycles == engine.stats.inline_cycles


@pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda c: c.__name__)
def test_a_crashed_checkpoint_still_counts_its_interval(traces, engine_cls):
    """The engine counts an interval before its checkpoint runs, so power
    lost inside the checkpoint leaves one more interval than checkpoint
    cycles."""
    trace = traces["ycsb_mem"]
    injector = FaultInjector()
    injector.arm(PERSIST_BARRIER, occurrence=1)
    engine = engine_cls(
        stack_range=trace.stack_range,
        mechanism=ProsperPersistence(),
        fault_injector=injector,
    )
    with pytest.raises(CrashInjected):
        engine.run(trace, interval_ops=1_000)
    stats = engine.mechanism.stats
    assert stats.intervals == 2
    assert len(stats.checkpoint_cycles) == 1


class TestScalarRouting:
    """The scalar engine calls a hook only where the mechanism's class
    defines one; every other access it only counts."""

    @pytest.mark.parametrize("factory", [NoPersistence, RomulusPersistence])
    def test_base_hooks_are_never_called(self, monkeypatch, traces, factory):
        calls = {"on_load": 0, "on_store": 0}

        def counter(name):
            def hook(self, address, size, now):
                calls[name] += 1
                return 0
            return hook

        for name in calls:
            monkeypatch.setattr(PersistenceMechanism, name, counter(name))
        mech = factory()
        # Patching the base leaves an inherited hook undefined.
        assert not mech.defines("on_load")
        engine = _run(ExecutionEngine, traces["gapbs_pr"], lambda: mech)
        assert engine.stats.stack_reads > 0
        assert mech.stats.loads_seen == engine.stats.stack_reads
        assert calls == {"on_load": 0, "on_store": 0}
