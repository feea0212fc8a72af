"""Tests for the evaluation-module helpers and remaining SSP behaviours."""

from repro.cpu.engine import ExecutionEngine
from repro.cpu.ops import Op, OpKind, array_to_ops
from repro.experiments import evaluation
from repro.memory.address import AddressRange
from repro.persistence.ssp import SspPersistence

STACK = AddressRange(0x7000_0000, 0x7010_0000)


def micro_traces(scale):
    builders = evaluation.micro_benchmark_builders(scale)
    return [builders[key]() for key in evaluation.MICRO_BENCHMARK_KEYS]


class TestMicroBenchmarkSet:
    def test_seven_table_iii_workloads(self):
        traces = micro_traces(0.2)
        names = [t.name for t in traces]
        assert names == [
            "random", "stream", "sparse", "quicksort", "rec-8",
            "normal", "poisson",
        ]

    def test_scale_shrinks_traces(self):
        small = micro_traces(0.2)
        large = micro_traces(0.5)
        assert sum(len(t.array) for t in small) < sum(len(t.array) for t in large)

    def test_random_is_dense(self):
        """The Figure 10 Random workload must over-write its array several
        times per interval, the regime where Dirtybit beats Prosper."""
        random_trace = evaluation.micro_benchmark_builders(0.5)["random"]()
        writes = sum(
            1 for op in array_to_ops(random_trace.array) if op.kind == OpKind.WRITE
        )
        array_words = 16 * 1024 // 8
        assert writes > 2 * array_words


class TestStackMechanismRegistry:
    def test_six_mechanisms(self):
        factories = evaluation.stack_mechanisms()
        assert set(factories) == {
            "romulus", "dirtybit", "prosper",
            "ssp-10us", "ssp-100us", "ssp-1ms",
        }

    def test_factories_produce_fresh_instances(self):
        factories = evaluation.stack_mechanisms()
        a = factories["prosper"]()
        b = factories["prosper"]()
        assert a is not b

    def test_ssp_factories_bind_their_interval(self):
        factories = evaluation.stack_mechanisms()
        assert factories["ssp-10us"]().consolidation_interval_us == 10.0
        assert factories["ssp-1ms"]().consolidation_interval_us == 1000.0


class TestSspPageLifecycle:
    def test_active_page_not_merged(self):
        mech = SspPersistence(10)
        engine = ExecutionEngine(stack_range=STACK, mechanism=mech)
        # Continuous writes: the page is always written within the last
        # consolidation period (10us = 30k cycles), so it is never
        # considered inactive even though many passes run.
        ops = []
        for _ in range(200):
            ops.append(Op(OpKind.WRITE, STACK.start + 8, 8))
            ops.append(Op(OpKind.COMPUTE, size=2_000))
        engine.run(ops, interval_ops=len(ops))
        assert mech.consolidation_invocations > 0
        assert mech.consolidated_lines_total == 0

    def test_idle_page_merged(self):
        mech = SspPersistence(10)
        engine = ExecutionEngine(stack_range=STACK, mechanism=mech)
        ops = [Op(OpKind.WRITE, STACK.start + 8, 8)]
        # Long quiet period, then a read that triggers the due pass.
        ops.append(Op(OpKind.COMPUTE, size=500_000))
        ops.append(Op(OpKind.READ, STACK.start + 8, 8))
        engine.run(ops, interval_ops=len(ops))
        assert mech.consolidated_lines_total >= 1

    def test_interference_accounted_as_inline(self):
        mech = SspPersistence(10)
        engine = ExecutionEngine(stack_range=STACK, mechanism=mech)
        ops = []
        for _ in range(50):
            ops.append(Op(OpKind.WRITE, STACK.start + 8, 8))
            ops.append(Op(OpKind.COMPUTE, size=50_000))
        stats = engine.run(ops, interval_ops=len(ops))
        assert mech.interference_cycles_total > 0
        assert stats.inline_cycles >= mech.interference_cycles_total
