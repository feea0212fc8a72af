"""Cross-engine parity under fault machinery: arming a FaultInjector (or
attaching a persist-order oracle) must route the batched engine through the
exact scalar path, so crash points, cycle counts, and recovery outcomes are
identical by construction."""

import random

import pytest

from repro.config import setup_i
from repro.cpu.engine import ExecutionEngine
from repro.cpu.engine_fast import BatchedExecutionEngine
from repro.cpu.ops import ops_to_array
from repro.faults.fuzzer import (
    _STACK_RANGE,
    CrashSpec,
    build_setup,
    build_trace,
    run_schedule,
)
from repro.faults.injector import STAGE_COMPLETE, CrashInjected, FaultInjector
from repro.persistence.prosper import ProsperPersistence
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


class TestDelegationGate:
    def test_plain_batched_engine_stays_vectorized(self):
        engine = _engine(BatchedExecutionEngine)
        assert not engine._scalar_exact_required()

    def test_attached_injector_forces_scalar_path(self):
        # Merely *attached* — not armed — already forces delegation: the
        # per-op cycle poll has to exist for arm_cycle to ever fire.
        engine = _engine(BatchedExecutionEngine, FaultInjector())
        assert engine._scalar_exact_required()

    def test_order_oracle_forces_scalar_path(self):
        from repro.faults.order import PersistOrderOracle

        engine = _engine(BatchedExecutionEngine)
        engine.hierarchy.nvm.order_oracle = PersistOrderOracle()
        assert engine._scalar_exact_required()


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


class TestScheduleParity:
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

    def test_fuzz_setup_batched_engine_delegates(self):
        setup = build_setup("prosper", "batched")
        assert isinstance(setup.engine, BatchedExecutionEngine)
        assert setup.engine._scalar_exact_required()


class TestTraceFormParity:
    """The scalar hand-off takes an Op list as is and unpacks arrays and
    Traces: all three forms of one trace must behave identically."""

    FORMS = {
        "list": TRACE,
        "array": ops_to_array(TRACE),
        "trace": Trace(ops_to_array(TRACE), _STACK_RANGE),
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
