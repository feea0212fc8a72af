"""Cross-engine parity under fault machinery.

The batched engine runs crash schedules on its own loop: it reads an armed
cycle deadline once per chunk and then polls it after every op, before the
interval-boundary test, exactly where the scalar loop calls
``FaultInjector.check_cycle``.  Named crash points and the persist-order
oracle sit in the checkpoint code both engines share.  So crash points,
cycle counts and recovery outcomes match the scalar reference because both
engines poll the same deadline the same way, on every mechanism and at
every deadline position — including chunk edges and checkpoint work — and
an attached but unarmed injector or oracle leaves vector mode on.
"""

import dataclasses
import random

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


class TestUnarmedFaultMachineryStaysVectorized:
    def test_hit_dense_run_with_injector_and_oracle(self):
        # Attached but unarmed, neither the injector nor the order oracle
        # changes a chunk's loop: the hit-dense quicksort still takes
        # vectorized runs, and still matches the scalar reference.
        trace = quicksort_workload(elements=1024, repeats=2, seed=7)
        results = {}
        for cls in (ExecutionEngine, BatchedExecutionEngine):
            injector = FaultInjector()
            engine = cls(
                config=setup_i(),
                stack_range=trace.stack_range,
                mechanism=ProsperPersistence(),
                heap_range=trace.heap_range,
                fault_injector=injector,
            )
            engine.hierarchy.nvm.order_oracle = PersistOrderOracle()
            stats = engine.run(trace, interval_cycles=60_000)
            results[cls] = (
                engine.now,
                dataclasses.asdict(stats),
                dataclasses.asdict(engine.mechanism.stats),
                list(injector.fired),
            )
            if cls is BatchedExecutionEngine:
                assert engine.vector_chunks > 0
        scalar = results[ExecutionEngine]
        assert results[BatchedExecutionEngine] == scalar
        assert len(scalar[1]["intervals"]) > 1 and scalar[3]


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
        deadline = reference["now"] + 1
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
