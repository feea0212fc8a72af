"""Differential suite: the batched engine against the scalar oracle.

The batched engine (:mod:`repro.cpu.engine_fast`) must be *byte-identical*
to the scalar reference, not approximately equal: every figure in the
paper reproduction is a ratio of cycle counts, so a single divergent
cache miss or mechanism hook would silently skew results.  These tests
run every figure's representative workload through both engines under
every mechanism family and compare full state snapshots — engine stats,
interval records, mechanism counters, per-level cache stats, device
stats, TLB stats, and final register state.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TrackerConfig, setup_i, setup_ii
from repro.core.policies import AllocationPolicy
from repro.cpu.engine import ExecutionEngine
from repro.cpu.engine_fast import CHUNK_OPS, BatchedExecutionEngine
from repro.cpu.ops import Op, OpKind, TraceBuilder, array_to_ops, ops_to_array
from repro.memory.address import AddressRange
from repro.memory.tlb import TlbConfig
from repro.persistence.dirtybit import DirtyBitPersistence
from repro.persistence.logging import (
    FlushPersistence,
    RedoLogPersistence,
    UndoLogPersistence,
)
from repro.persistence.none import NoPersistence
from repro.persistence.prosper import ProsperPersistence
from repro.persistence.ssp import SspPersistence
from repro.workloads.apps import (
    APP_STACK,
    g500_sssp,
    gapbs_pr,
    ycsb_mem,
    ycsb_mem_phased,
)
from repro.workloads.callstack import quicksort_workload, recursive_workload
from repro.workloads.spec import spec_workload
from repro.workloads.synthetic import (
    DEFAULT_HEAP,
    DEFAULT_STACK,
    normal_workload,
    poisson_workload,
    random_workload,
    sparse_workload,
    stream_workload,
)
from repro.workloads.trace import Trace

#: Trace length for the differential runs: several vectorization chunks
#: (CHUNK_OPS = 8192) so chunk-boundary handling is exercised.
OPS = 20_000


def _stats_dict(stats) -> object:
    if dataclasses.is_dataclass(stats):
        return dataclasses.asdict(stats)
    return repr(stats)


def snapshot(engine: ExecutionEngine, stats) -> dict:
    """Full observable state of a finished run."""
    hierarchy = engine.hierarchy
    return {
        "engine": _stats_dict(stats),
        "now": engine.now,
        "stack_pointer": engine.registers.stack_pointer,
        "op_index": engine.registers.op_index,
        "mechanism": _stats_dict(engine.mechanism.stats),
        "heap_mechanism": (
            _stats_dict(engine.heap_mechanism.stats)
            if engine.heap_mechanism is not None
            else None
        ),
        "caches": {
            level.name: _stats_dict(level.stats)
            for level in (hierarchy.l1, hierarchy.l2, hierarchy.l3)
        },
        "dram": _stats_dict(hierarchy.dram.stats),
        "nvm": (
            _stats_dict(hierarchy.nvm.stats) if hierarchy.nvm is not None else None
        ),
        "tlb": _stats_dict(engine.tlb.stats) if engine.tlb is not None else None,
    }


def run_both(
    trace: Trace,
    mechanism_factory=NoPersistence,
    config_factory=setup_i,
    heap_factory=None,
    **run_kwargs,
) -> tuple[dict, dict]:
    """Run *trace* through both engines with freshly built state each."""
    results = []
    for engine_cls in (ExecutionEngine, BatchedExecutionEngine):
        engine = engine_cls(
            config=config_factory(),
            stack_range=trace.stack_range,
            mechanism=mechanism_factory(),
            heap_range=trace.heap_range,
            heap_mechanism=heap_factory() if heap_factory is not None else None,
        )
        stats = engine.run(trace, **run_kwargs)
        results.append(snapshot(engine, stats))
    return results[0], results[1]


def assert_equivalent(trace, **kwargs) -> None:
    scalar, batched = run_both(trace, **kwargs)
    assert batched == scalar


WORKLOADS = {
    "random": lambda: random_workload(OPS, seed=7),
    "stream": lambda: stream_workload(OPS, seed=7),
    "sparse": lambda: sparse_workload(rounds=100, seed=7),
    "normal": lambda: normal_workload(OPS, seed=7),
    "poisson": lambda: poisson_workload(OPS, seed=7),
    "quicksort": lambda: quicksort_workload(seed=7),
    "recursive": lambda: recursive_workload(descents=250, seed=7),
    "gapbs_pr": lambda: gapbs_pr(OPS, seed=7),
    "g500_sssp": lambda: g500_sssp(OPS, seed=7),
    "ycsb_mem": lambda: ycsb_mem(OPS, seed=7),
    "ycsb_phased": lambda: ycsb_mem_phased(OPS, seed=7),
    "spec_mcf": lambda: spec_workload("605.mcf_s", OPS, seed=7),
}

MECHANISMS = {
    "none": NoPersistence,
    "prosper": ProsperPersistence,
    "dirtybit": DirtyBitPersistence,
    "ssp": SspPersistence,
    "flush": FlushPersistence,
    "undo": UndoLogPersistence,
    "redo": RedoLogPersistence,
}


class TestWorkloadCoverage:
    """Every figure's representative workload, under the paper's headline
    mechanism (Prosper) with wall-clock intervals."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_prosper_interval_cycles(self, workload):
        assert_equivalent(
            WORKLOADS[workload](),
            mechanism_factory=ProsperPersistence,
            interval_cycles=25_000,
        )

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_vanilla_no_intervals(self, workload):
        assert_equivalent(WORKLOADS[workload]())


class TestMechanismCoverage:
    """Every mechanism family on one call-heavy and one app workload, in
    both interval modes."""

    @pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
    def test_interval_cycles(self, mechanism):
        assert_equivalent(
            gapbs_pr(OPS, seed=11),
            mechanism_factory=MECHANISMS[mechanism],
            interval_cycles=25_000,
        )

    @pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
    def test_interval_ops(self, mechanism):
        assert_equivalent(
            quicksort_workload(seed=11),
            mechanism_factory=MECHANISMS[mechanism],
            interval_ops=1_500,
        )


def _run_engines(trace, mechanism_factory, **run_kwargs):
    """Like :func:`run_both` but returns the engines for deep inspection."""
    engines = []
    for engine_cls in (ExecutionEngine, BatchedExecutionEngine):
        engine = engine_cls(
            config=setup_i(),
            stack_range=trace.stack_range,
            mechanism=mechanism_factory(),
        )
        engine.run(trace, **run_kwargs)
        engines.append(engine)
    return engines[0], engines[1]


def _prosper_deep_state(engine) -> dict:
    """Mechanism-internal state the top-level snapshot doesn't reach:
    tracker table counters, raw bitmap words, MSR-visible low-water mark,
    and the per-interval checkpoint traffic."""
    mech = engine.mechanism
    tracker = mech.tracker
    return {
        "table_stats": dataclasses.asdict(tracker.stats),
        "table_entries": sorted(tracker.table.entries_snapshot()),
        "bitmap_words": mech.bitmap.snapshot_words().tolist(),
        "min_dirty_address": tracker.min_dirty_address,
        "checkpoint_bytes": list(mech.stats.checkpoint_bytes),
        "checkpoint_cycles": list(mech.stats.checkpoint_cycles),
    }


class TestBatchedHookDeepState:
    """Batched-hook delivery must leave the *internal* Prosper machinery —
    not just the top-level counters — byte-identical to per-op delivery,
    across tracking granularities and both entry-allocation policies."""

    GRANULARITIES = (8, 64, 512)
    POLICIES = (
        AllocationPolicy.ACCUMULATE_AND_APPLY,
        AllocationPolicy.LOAD_AND_UPDATE,
    )

    @staticmethod
    def _factory(granularity: int, policy: AllocationPolicy):
        return lambda: ProsperPersistence(
            TrackerConfig(granularity_bytes=granularity), policy=policy
        )

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_tracker_and_checkpoint_state(self, granularity, policy):
        trace = quicksort_workload(seed=13)
        scalar, batched = _run_engines(
            trace,
            self._factory(granularity, policy),
            interval_cycles=25_000,
        )
        assert _prosper_deep_state(batched) == _prosper_deep_state(scalar)
        assert snapshot(batched, batched.stats) == snapshot(scalar, scalar.stats)

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_mid_interval_state(self, granularity, policy):
        # Without the final checkpoint the run ends mid-interval, so the
        # lookup table still holds unflushed entries and the bitmap holds
        # bits the OS has not consumed — the state the batched hooks build
        # incrementally and must leave exactly as the scalar engine does.
        trace = gapbs_pr(OPS, seed=13)
        scalar, batched = _run_engines(
            trace,
            self._factory(granularity, policy),
            interval_cycles=25_000,
            final_checkpoint=False,
        )
        assert _prosper_deep_state(batched) == _prosper_deep_state(scalar)

    @pytest.mark.parametrize("page_bytes", [512, 4096])
    def test_dirtybit_page_sets(self, page_bytes):
        # The page-grain baseline also batches; its dirty/mapped page sets
        # and checkpoint traffic must match the scalar oracle too.
        trace = quicksort_workload(seed=13)
        scalar, batched = _run_engines(
            trace,
            lambda: DirtyBitPersistence(page_bytes=page_bytes),
            interval_cycles=25_000,
            final_checkpoint=False,
        )
        assert batched.mechanism._dirty_pages == scalar.mechanism._dirty_pages
        assert batched.mechanism._mapped_pages == scalar.mechanism._mapped_pages
        assert list(batched.mechanism.stats.checkpoint_bytes) == list(
            scalar.mechanism.stats.checkpoint_bytes
        )
        assert list(batched.mechanism.stats.checkpoint_cycles) == list(
            scalar.mechanism.stats.checkpoint_cycles
        )


def _mixed_density_trace() -> Trace:
    """Quicksort and ycsb_mem slices spliced at chunk granularity.

    Quicksort stays in L1 (hit-dense chunks, vectorized-run mode) while
    ycsb_mem thrashes it (miss-dense chunks, per-op loop), so one run
    hands the L1 replacement state from one loop to the other in both
    directions.  The two generators' stacks are adjacent, and both use
    the default heap.
    """
    qsort = quicksort_workload(seed=7).array
    ycsb = ycsb_mem(2 * CHUNK_OPS, seed=7).array
    c = CHUNK_OPS
    parts = [qsort[: 2 * c], ycsb[:c], qsort[2 * c : 4 * c], ycsb[c : 2 * c]]
    parts.append(qsort[4 * c : 5 * c])
    stack = AddressRange(APP_STACK.start, DEFAULT_STACK.end)
    return Trace(np.concatenate(parts), stack, DEFAULT_HEAP)


def _checkpoint_state(mechanism) -> dict:
    """Checkpoint traffic plus the dirty-tracking state behind it."""
    state = {
        "checkpoint_bytes": list(mechanism.stats.checkpoint_bytes),
        "checkpoint_cycles": list(mechanism.stats.checkpoint_cycles),
    }
    if isinstance(mechanism, ProsperPersistence):
        tracker = mechanism.tracker
        state["table_entries"] = sorted(tracker.table.entries_snapshot())
        state["bitmap_words"] = mechanism.bitmap.snapshot_words().tolist()
        state["min_dirty_address"] = tracker.min_dirty_address
    elif isinstance(mechanism, DirtyBitPersistence):
        state["dirty_pages"] = set(mechanism._dirty_pages)
        state["mapped_pages"] = set(mechanism._mapped_pages)
    return state


def _cache_state(engine) -> list:
    """Tags, dirty bits, last-use ticks and clock of every cache level."""
    hierarchy = engine.hierarchy
    return [
        (list(c._tags), bytes(c._dirty), list(c._age), c._tick)
        for c in (hierarchy.l1, hierarchy.l2, hierarchy.l3)
    ]


class TestMixedDensity:
    """Hit-dense and miss-dense chunks in one run: the batched engine picks
    a loop per chunk, and every hand-over between the two must leave the
    L1 replacement state exact."""

    @pytest.mark.parametrize(
        "interval", [{"interval_cycles": 25_000}, {"interval_ops": 1_500}],
        ids=["interval_cycles", "interval_ops"],
    )
    @pytest.mark.parametrize("mechanism", ["none", "prosper", "dirtybit"])
    def test_loop_hand_over(self, mechanism, interval):
        trace = _mixed_density_trace()
        engines = []
        for engine_cls in (ExecutionEngine, BatchedExecutionEngine):
            engine = engine_cls(
                config=setup_i(),
                stack_range=trace.stack_range,
                mechanism=MECHANISMS[mechanism](),
                heap_range=trace.heap_range,
                heap_mechanism=DirtyBitPersistence(),
            )
            engine.run(trace, final_checkpoint=False, **interval)
            engines.append(engine)
        scalar, batched = engines
        assert batched.vector_chunks > 0
        assert batched.per_op_chunks > 0
        assert snapshot(batched, batched.stats) == snapshot(scalar, scalar.stats)
        # Replacement state itself, not just its counters: a stale age
        # left behind by a hand-over changes victims only much later.
        assert _cache_state(batched) == _cache_state(scalar)
        for attr in ("mechanism", "heap_mechanism"):
            assert _checkpoint_state(getattr(batched, attr)) == _checkpoint_state(
                getattr(scalar, attr)
            )


class TestConfigurationCorners:
    def test_setup_ii(self):
        assert_equivalent(
            ycsb_mem(OPS, seed=3),
            mechanism_factory=ProsperPersistence,
            config_factory=setup_ii,
            interval_cycles=25_000,
        )

    def test_tlb_enabled(self):
        def config():
            return dataclasses.replace(setup_i(), tlb=TlbConfig())

        assert_equivalent(
            gapbs_pr(OPS, seed=3),
            mechanism_factory=ProsperPersistence,
            config_factory=config,
            interval_cycles=25_000,
        )

    def test_heap_mechanism(self):
        assert_equivalent(
            ycsb_mem(OPS, seed=3),
            mechanism_factory=ProsperPersistence,
            heap_factory=DirtyBitPersistence,
            interval_cycles=25_000,
        )

    def test_no_final_checkpoint(self):
        assert_equivalent(
            gapbs_pr(OPS, seed=3),
            mechanism_factory=ProsperPersistence,
            interval_cycles=25_000,
            final_checkpoint=False,
        )

    def test_interval_longer_than_trace(self):
        # Only the trailing partial interval ever commits.
        assert_equivalent(
            random_workload(2_000, seed=3),
            mechanism_factory=ProsperPersistence,
            interval_cycles=10**9,
        )

    def test_interval_ops_unaligned_with_chunks(self):
        # interval_ops prime relative to CHUNK_OPS: boundaries land
        # mid-chunk and straddle chunk edges.
        assert_equivalent(
            stream_workload(OPS, seed=3),
            mechanism_factory=DirtyBitPersistence,
            interval_ops=997,
        )


def _overflowing_trace() -> Trace:
    stack = AddressRange(0x7000_0000, 0x7000_0400)  # 1 KiB stack
    ops = TraceBuilder()
    for _ in range(6):
        ops.call(256)
        ops.write(stack.end - 8)
    return Trace(ops.to_array(), stack)


class TestFaultEquivalence:
    def test_stack_overflow_identical(self):
        trace = _overflowing_trace()
        outcomes = []
        for engine_cls in (ExecutionEngine, BatchedExecutionEngine):
            engine = engine_cls(stack_range=trace.stack_range)
            with pytest.raises(RuntimeError) as excinfo:
                engine.run(trace, interval_cycles=50)
            outcomes.append((str(excinfo.value), snapshot(engine, engine.stats)))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("engine_cls", [ExecutionEngine, BatchedExecutionEngine])
    def test_invalid_arguments(self, engine_cls):
        engine = engine_cls(stack_range=AddressRange(0, 4096))
        with pytest.raises(ValueError):
            engine.run([], interval_cycles=-1)
        with pytest.raises(ValueError):
            engine.run([], interval_ops=0)


_OPS_STRATEGY = st.lists(
    st.builds(
        Op,
        kind=st.sampled_from(list(OpKind)),
        address=st.integers(min_value=0, max_value=2**64 - 1),
        size=st.integers(min_value=0, max_value=2**32 - 1),
    ),
    max_size=128,
)


class TestArrayRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(_OPS_STRATEGY)
    def test_ops_array_round_trip(self, ops):
        assert array_to_ops(ops_to_array(ops)) == ops

    @settings(max_examples=60, deadline=None)
    @given(_OPS_STRATEGY)
    def test_trace_builder_matches_ops_to_array(self, ops):
        builder = TraceBuilder()
        for op in ops:
            builder.append(int(op.kind), op.address, op.size)
        assert len(builder) == len(ops)
        built = builder.to_array()
        reference = ops_to_array(ops)
        assert built.dtype == reference.dtype
        assert built.tobytes() == reference.tobytes()
