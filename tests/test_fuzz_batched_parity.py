"""Cross-engine parity under fault machinery.

The batched engine runs crash schedules on its own loop, and an armed
cycle deadline goes through the same stop step as an interval boundary:
the walk stops where the cycle count plus the deferred-cost bound may
reach the deadline, the deferred hooks are delivered, and the exact cycle
count is tested before the interval-boundary test, exactly where the
scalar loop calls ``FaultInjector.check_cycle``.  Named crash points and
the persist-order oracle sit in the checkpoint code both engines share.
So crash points, cycle counts and recovery outcomes match the scalar
reference on every mechanism and at every deadline position — including
chunk edges and checkpoint work — and an attached injector, armed or not,
or an oracle leaves batched hook delivery on.
"""

import dataclasses
import random
from functools import partial

import pytest

from repro.config import setup_i
from repro.cpu.engine import ExecutionEngine
from repro.cpu.engine_fast import CHUNK_OPS, BatchedExecutionEngine
from repro.cpu.ops import array_to_ops
from repro.faults.fuzzer import (
    _STACK_RANGE,
    MECHANISMS,
    CrashSpec,
    _probe,
    _sample_spec,
    build_setup,
    build_trace,
    run_schedule,
)
from repro.faults.injector import (
    STAGE_COMPLETE,
    CrashInjected,
    FaultInjector,
    cycle_point,
)
from repro.faults.order import PersistOrderOracle
from repro.persistence.prosper import ProsperPersistence
from repro.workloads.callstack import quicksort_workload
from repro.workloads.trace import Trace
from tests.test_engine_equivalence import _HookReturns

OPS = 600
INTERVAL_OPS = 200
TRACE = build_trace(0, OPS)


def _engine(cls, injector=None):
    return cls(
        config=setup_i(),
        mechanism=ProsperPersistence(),
        fault_injector=injector,
    )


class TestEngineParity:
    def test_unarmed_run_matches_scalar_stats(self):
        results = {}
        for cls in (ExecutionEngine, BatchedExecutionEngine):
            engine = _engine(cls, FaultInjector())
            engine.run(TRACE, interval_ops=INTERVAL_OPS)
            results[cls.__name__] = (engine.now, list(engine.fault_injector.fired))
        assert results["ExecutionEngine"] == results["BatchedExecutionEngine"]

    def test_armed_point_crash_is_identical(self):
        crashes = {}
        for cls in (ExecutionEngine, BatchedExecutionEngine):
            injector = FaultInjector()
            engine = _engine(cls, injector)
            injector.arm(STAGE_COMPLETE, 1)
            with pytest.raises(CrashInjected) as exc:
                engine.run(TRACE, interval_ops=INTERVAL_OPS)
            crashes[cls.__name__] = (
                exc.value.point,
                exc.value.occurrence,
                engine.now,
                list(injector.fired),
            )
        assert crashes["ExecutionEngine"] == crashes["BatchedExecutionEngine"]

    def test_armed_cycle_crash_is_identical(self):
        crashes = {}
        for cls in (ExecutionEngine, BatchedExecutionEngine):
            injector = FaultInjector()
            engine = _engine(cls, injector)
            injector.arm_cycle(50_000)
            with pytest.raises(CrashInjected) as exc:
                engine.run(TRACE, interval_ops=INTERVAL_OPS)
            crashes[cls.__name__] = (exc.value.point, engine.now)
        assert crashes["ExecutionEngine"] == crashes["BatchedExecutionEngine"]


class _CountingProsper(ProsperPersistence):
    """Prosper that counts its batched store deliveries."""

    def __init__(self) -> None:
        super().__init__()
        self.store_batches = 0

    def on_store_batch(self, addresses, sizes, now):
        self.store_batches += 1
        return super().on_store_batch(addresses, sizes, now)


class TestFaultsKeepBatching:
    """Attached injectors, armed or not, and the order oracle leave batched
    hook delivery on, and deferred SSP hooks too, and leave Dirtybit with
    no hook at all; the batched engine still matches the scalar
    reference."""

    #: Inside the second 20k-cycle interval of every armed input.
    DEADLINE = 40_000

    @pytest.mark.parametrize(
        "armed", [None, "prosper", "dirtybit", "ssp"],
        ids=["unarmed", "armed-prosper", "armed-dirtybit", "armed-ssp"],
    )
    def test_with_injector_and_oracle(self, armed, monkeypatch):
        run = (
            self._unarmed if armed is None
            else partial(self._armed, armed, monkeypatch)
        )
        scalar, _ = run(ExecutionEngine)
        batched, deferred = run(BatchedExecutionEngine)
        # Dirtybit reads the store log: it has no hook to defer.
        assert (deferred > 0) == (armed != "dirtybit")
        assert batched == scalar

    def _unarmed(self, cls):
        trace = quicksort_workload(elements=1024, repeats=2, seed=7)
        injector = FaultInjector()
        engine = cls(
            config=setup_i(),
            stack_range=trace.stack_range,
            mechanism=_CountingProsper(),
            heap_range=trace.heap_range,
            fault_injector=injector,
        )
        engine.hierarchy.nvm.order_oracle = PersistOrderOracle()
        stats = engine.run(trace, interval_cycles=60_000)
        assert len(stats.intervals) > 1 and injector.fired
        result = (
            engine.now,
            dataclasses.asdict(stats),
            dataclasses.asdict(engine.mechanism.stats),
            list(injector.fired),
        )
        return result, engine.mechanism.store_batches

    def _armed(self, mechanism, monkeypatch, cls):
        # A crash schedule's fuzz target with a cycle deadline armed: the
        # interval the crash lands in batches its stores too (or, on SSP,
        # defers the hooks before its consolidation deadline; Dirtybit
        # takes no hook), and the crash, the golden images and the
        # snapshots match the scalar twin.
        engine_name = "scalar" if cls is ExecutionEngine else "batched"
        target = build_setup(mechanism, engine_name, trace=build_trace(0, 1200))
        batches = []
        inner_hook = target.inner.on_store_batch

        def counting_hook(addresses, sizes, now):
            batches.append(len(addresses))
            return inner_hook(addresses, sizes, now)

        target.inner.on_store_batch = counting_hook
        hook_calls = _count_hook_calls(target.inner)
        hook_returns = _HookReturns(monkeypatch)
        target.injector.arm_cycle(self.DEADLINE)
        with pytest.raises(CrashInjected) as exc:
            target.engine.run(target.trace, interval_cycles=20_000)
        stats = target.engine.stats
        assert exc.value.point == cycle_point(self.DEADLINE)
        assert len(stats.intervals) == 1
        if batches:
            assert sum(batches) == stats.stack_writes
        if mechanism == "dirtybit":
            # No store hook reaches Dirtybit, batched or per op, and the
            # walk never stops for one.
            assert not batches and hook_calls[0] == 0 == hook_returns.count
        result = (
            exc.value.point,
            target.cycles,
            dataclasses.asdict(stats),
            dataclasses.asdict(target.inner.stats),
            list(target.injector.fired),
            dict(target.dram.iter_words()),
            target.durable and dict(target.durable.iter_words()),
            [(dict(s.image.iter_words()), s.final_sp) for s in target.snapshots],
        )
        if mechanism != "ssp":
            return result, len(batches)
        # Every hook ran before the crash check, but the walk returned for
        # few of them: the rest were replayed.
        calls = hook_calls[0]
        assert calls == stats.stack_writes + stats.stack_reads
        return result + (target.inner.consolidation_invocations,), calls - hook_returns.count


def _count_hook_calls(mechanism) -> list[int]:
    """Counts *mechanism*'s ``on_store``/``on_load`` calls in a one-item
    list, through instance attributes: the class keeps defining both."""
    calls = [0]
    for name in ("on_store", "on_load"):
        hook = getattr(mechanism, name)

        def counting(address, size, now, hook=hook):
            calls[0] += 1
            return hook(address, size, now)

        setattr(mechanism, name, counting)
    return calls


class TestRecorderBatching:
    """The golden-image recorder reads the interval store log and defines
    exactly the hooks of its inner mechanism, so a batched probe
    crash-checks the hook path the figures run: Prosper's stores in
    batches, and no store hook at all for Dirtybit.  The golden images
    match the scalar reference either way."""

    @pytest.mark.parametrize("mechanism", ["prosper", "dirtybit"])
    def test_batched_probe_delivers_store_batches(self, mechanism, monkeypatch):
        targets = {}
        batches = []
        hook_returns = _HookReturns(monkeypatch)
        for engine_name in ("scalar", "batched"):
            target = build_setup(
                mechanism, engine_name, trace=build_trace(0, 1200),
                interval_ops=300,
            )
            if engine_name == "batched":
                inner_hook = target.inner.on_store_batch

                def counting_hook(addresses, sizes, now, inner_hook=inner_hook):
                    batches.append(len(addresses))
                    return inner_hook(addresses, sizes, now)

                target.inner.on_store_batch = counting_hook
                hook_calls = _count_hook_calls(target.inner)
            target.run()
            targets[engine_name] = target
        scalar, batched = targets["scalar"], targets["batched"]
        assert hook_calls[0] == 0  # no per-op hook on the batched engine
        if mechanism == "prosper":
            assert batched.recorder.defines("on_store_batch")
            assert batches and sum(batches) == batched.engine.stats.stack_writes
        else:
            assert not any(
                batched.recorder.defines(hook)
                for hook in ("on_store", "on_store_batch", "on_load")
            )
            assert not batches and hook_returns.count == 0
        assert batched.engine.stats.stack_writes > 0
        assert batched.cycles == scalar.cycles
        assert dict(batched.dram.iter_words()) == dict(scalar.dram.iter_words())
        assert dict(batched.durable.iter_words()) == dict(
            scalar.durable.iter_words()
        )
        assert [
            (dict(s.image.iter_words()), s.final_sp) for s in batched.snapshots
        ] == [(dict(s.image.iter_words()), s.final_sp) for s in scalar.snapshots]


class _ClockInjector(FaultInjector):
    """Records the cycle count at every per-op deadline poll."""

    def __init__(self) -> None:
        super().__init__()
        self.after_op: list[int] = []

    def check_cycle(self, now: int) -> None:
        self.after_op.append(now)
        super().check_cycle(now)


class TestCycleDeadlinePositions:
    """A cycle deadline fires at the first op after which the clock has
    reached it, on both engines, wherever it falls."""

    TRACE = build_trace(1, CHUNK_OPS + 4000)
    INTERVAL = 3000  # boundaries after ops 2999, 5999, 8999

    def _run(self, cls, deadline=None, injector=None):
        injector = injector if injector is not None else FaultInjector()
        engine = cls(
            config=setup_i(),
            stack_range=_STACK_RANGE,
            mechanism=ProsperPersistence(),
            fault_injector=injector,
        )
        if deadline is not None:
            injector.arm_cycle(deadline)
        point = None
        try:
            engine.run(self.TRACE, interval_ops=self.INTERVAL)
        except CrashInjected as exc:
            point = exc.point
        return {
            "point": point,
            "now": engine.now,
            "stats": dataclasses.asdict(engine.stats),
            "fired": list(injector.fired),
        }

    @pytest.fixture(scope="class")
    def clock(self):
        """Scalar reference run: the cycle after each op, and its stats."""
        injector = _ClockInjector()
        result = self._run(ExecutionEngine, injector=injector)
        assert len(injector.after_op) == len(self.TRACE)
        return injector.after_op, result

    def _assert_fires_at(self, deadline, op_index):
        scalar = self._run(ExecutionEngine, deadline)
        batched = self._run(BatchedExecutionEngine, deadline)
        assert batched == scalar
        assert scalar["point"] == cycle_point(deadline)
        assert scalar["stats"]["ops_executed"] == op_index + 1

    @pytest.mark.parametrize("op_index", [CHUNK_OPS - 1, CHUNK_OPS])
    def test_on_a_chunk_edge_op(self, clock, op_index):
        after_op, _ = clock
        deadline = after_op[op_index]
        assert after_op[op_index - 1] < deadline
        self._assert_fires_at(deadline, op_index)

    def test_inside_one_ops_latency(self, clock):
        after_op, _ = clock
        # A mid-interval op of the second chunk that costs several cycles:
        # a deadline one cycle into it fires at that op.
        k = next(
            k for k in range(CHUNK_OPS + 10, len(after_op))
            if after_op[k] - after_op[k - 1] >= 3
            and (k % self.INTERVAL) not in (0, self.INTERVAL - 1)
        )
        self._assert_fires_at(after_op[k - 1] + 1, k)

    def test_inside_checkpoint_work_fires_at_the_next_op(self, clock):
        after_op, reference = clock
        end = self.INTERVAL - 1
        first = reference["stats"]["intervals"][0]
        assert first["checkpoint_cycles"] > 1
        assert first["end_cycle"] == after_op[end] + first["checkpoint_cycles"]
        self._assert_fires_at(after_op[end] + 1, end + 1)

    def test_past_the_end_never_fires(self, clock):
        after_op, reference = clock
        # Also a deadline past the int64 range the walk's control block holds.
        for deadline in (reference["now"] + 1, 1 << 63):
            scalar = self._run(ExecutionEngine, deadline)
            batched = self._run(BatchedExecutionEngine, deadline)
            assert batched == scalar
            assert scalar["point"] is None
            assert scalar["stats"]["ops_executed"] == len(self.TRACE)
            assert {k: v for k, v in scalar.items() if k != "point"} == {
                k: v for k, v in reference.items() if k != "point"
            }


class TestScheduleParity:
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_sampled_schedules_match_on_every_mechanism(self, mechanism):
        # The campaign's own sampling (cycle and point specs, sampled
        # persist plans), replayed on both engines with the same draws.
        outcomes = {}
        probes = {}
        for engine_name in ("scalar", "batched"):
            total_cycles, fired = _probe(
                mechanism, engine_name, TRACE, INTERVAL_OPS
            )
            probes[engine_name] = (total_cycles, list(fired))
            runs = []
            for index in range(12):
                spec = _sample_spec(
                    random.Random(f"{mechanism}:{index}"), total_cycles, fired
                )
                outcome = run_schedule(
                    mechanism, engine_name, TRACE, INTERVAL_OPS, spec,
                    index=index, plan_rng=random.Random(index),
                )
                d = outcome.to_dict()
                assert d.pop("engine") == engine_name
                runs.append(d)
            outcomes[engine_name] = runs
        assert probes["batched"] == probes["scalar"]
        assert outcomes["batched"] == outcomes["scalar"]
        runs = outcomes["scalar"]
        assert all(d["ok"] for d in runs)
        kinds = {d["crash"]["kind"] for d in runs}
        assert "cycle" in kinds
        if probes["scalar"][1]:
            assert kinds == {"cycle", "point"}

    @pytest.mark.parametrize("mechanism", ["prosper", "dirtybit"])
    def test_same_schedule_same_outcome(self, mechanism):
        # Fix the schedule completely (point spec + forced neat-ish plan
        # sampled once) and compare full outcome dicts across engines;
        # only the engine label itself may differ.
        spec = CrashSpec("point", point=STAGE_COMPLETE, occurrence=1)
        outcomes = {}
        for engine_name in ("scalar", "batched"):
            outcome = run_schedule(
                mechanism, engine_name, TRACE, INTERVAL_OPS, spec,
                plan_rng=random.Random(17),
            )
            d = outcome.to_dict()
            assert d.pop("engine") == engine_name
            outcomes[engine_name] = d
        assert outcomes["scalar"] == outcomes["batched"]
        assert outcomes["scalar"]["ok"]


class TestTraceFormParity:
    """The batched engine takes an Op list, a ``TRACE_DTYPE`` array or a
    Trace: all three forms of one trace must behave identically."""

    FORMS = {
        "list": array_to_ops(TRACE),
        "array": TRACE,
        "trace": Trace(TRACE, _STACK_RANGE),
    }

    def test_unarmed_runs_fire_the_same_points(self):
        results = {}
        for form, ops in self.FORMS.items():
            engine = _engine(BatchedExecutionEngine, FaultInjector())
            engine.run(ops, interval_ops=INTERVAL_OPS)
            results[form] = (engine.now, list(engine.fault_injector.fired))
        assert results["list"] == results["array"] == results["trace"]

    @pytest.mark.parametrize(
        "spec",
        [
            CrashSpec("point", point=STAGE_COMPLETE, occurrence=1),
            CrashSpec("cycle", cycle=50_000),
        ],
    )
    def test_same_schedule_same_outcome(self, spec):
        outcomes = {
            form: run_schedule(
                "prosper", "batched", ops, INTERVAL_OPS, spec,
                plan_rng=random.Random(17),
            ).to_dict()
            for form, ops in self.FORMS.items()
        }
        assert outcomes["list"] == outcomes["array"] == outcomes["trace"]
        assert outcomes["list"]["crashed"] and outcomes["list"]["ok"]
