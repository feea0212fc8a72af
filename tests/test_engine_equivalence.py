"""Differential suite: the batched engine against the scalar oracle.

The batched engine (:mod:`repro.cpu.engine_fast`) must be *byte-identical*
to the scalar reference, not approximately equal: every figure in the
paper reproduction is a ratio of cycle counts, so a single divergent
cache miss or mechanism hook would silently skew results.  These tests
run every figure's representative workload through both engines under
every mechanism family and compare full state snapshots — engine stats,
interval records, mechanism counters, per-level cache stats, device
stats, and final register state.
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
from repro.experiments.runner import (
    fixed_cost_scale_for,
    scaled_interval_cycles,
    vanilla_cycles,
)
from repro.faults.injector import FaultInjector
from repro.memory import native
from repro.memory.address import AddressRange
from repro.persistence.base import PersistenceMechanism, StoreLog
from repro.persistence.dirtybit import DirtyBitPersistence, touched_pages
from repro.persistence.logging import (
    FlushPersistence,
    RedoLogPersistence,
    UndoLogPersistence,
)
from repro.persistence.none import NoPersistence
from repro.persistence.prosper import ProsperPersistence
from repro.persistence.romulus import RomulusPersistence
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
        # The page-grain baseline reads its dirty pages from the engine's
        # store log: the unfinished interval's log must give the scalar
        # oracle's page set, and the checkpoint traffic must match too.
        trace = quicksort_workload(seed=13)
        scalar, batched = _run_engines(
            trace,
            lambda: DirtyBitPersistence(page_bytes=page_bytes),
            interval_cycles=25_000,
            final_checkpoint=False,
        )
        pages = [
            touched_pages(engine._stack_stores, page_bytes).tolist()
            for engine in (scalar, batched)
        ]
        assert pages[0] and pages[1] == pages[0]
        assert list(batched.mechanism.stats.checkpoint_bytes) == list(
            scalar.mechanism.stats.checkpoint_bytes
        )
        assert list(batched.mechanism.stats.checkpoint_cycles) == list(
            scalar.mechanism.stats.checkpoint_cycles
        )


def _mixed_density_trace() -> Trace:
    """Quicksort and ycsb_mem slices spliced at chunk granularity.

    Quicksort stays in L1 (hit-dense chunks) while ycsb_mem thrashes it
    (miss-dense chunks), so one run hands the L1 replacement state
    between the two kinds of stretch in both directions.  The two
    generators' stacks are adjacent, and both use the default heap.
    """
    qsort = quicksort_workload(seed=7).array
    ycsb = ycsb_mem(2 * CHUNK_OPS, seed=7).array
    c = CHUNK_OPS
    parts = [qsort[: 2 * c], ycsb[:c], qsort[2 * c : 4 * c], ycsb[c : 2 * c]]
    parts.append(qsort[4 * c : 5 * c])
    stack = AddressRange(APP_STACK.start, DEFAULT_STACK.end)
    return Trace(np.concatenate(parts), stack, DEFAULT_HEAP)


def _checkpoint_state(mechanism, ctx) -> dict:
    """Checkpoint traffic plus the dirty-tracking state behind it; *ctx* is
    the mechanism's region context, whose store log Dirtybit reads."""
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
        state["dirty_pages"] = mechanism.dirty_pages(ctx)[0].tolist()
    return state


def _cache_state(engine) -> list:
    """Tags, dirty bits, last-use ticks and clock of every cache level."""
    hierarchy = engine.hierarchy
    return [
        (list(c._tags), bytes(c._dirty), list(c._age), c._clock[0])
        for c in (hierarchy.l1, hierarchy.l2, hierarchy.l3)
    ]


class TestMixedDensity:
    """Hit-dense and miss-dense chunks in one run: every hand-over between
    the two must leave the L1 replacement state exact."""

    @pytest.mark.parametrize(
        "interval", [{"interval_cycles": 25_000}, {"interval_ops": 1_500}],
        ids=["interval_cycles", "interval_ops"],
    )
    @pytest.mark.parametrize(
        "mechanism, heap",
        [
            ("none", "dirtybit"),
            ("prosper", "dirtybit"),
            ("dirtybit", "dirtybit"),
            # Two Prosper trackers deferring hooks at once, as in the
            # `repro extensions` heap study.
            ("prosper", "prosper"),
        ],
        ids=["none", "prosper", "dirtybit", "prosper-on-both"],
    )
    def test_loop_hand_over(self, mechanism, heap, interval):
        trace = _mixed_density_trace()
        engines = []
        for engine_cls in (ExecutionEngine, BatchedExecutionEngine):
            engine = engine_cls(
                config=setup_i(),
                stack_range=trace.stack_range,
                mechanism=MECHANISMS[mechanism](),
                heap_range=trace.heap_range,
                heap_mechanism=MECHANISMS[heap](),
            )
            engine.run(trace, final_checkpoint=False, **interval)
            engines.append(engine)
        scalar, batched = engines
        assert snapshot(batched, batched.stats) == snapshot(scalar, scalar.stats)
        # Replacement state itself, not just its counters: a stale age
        # left behind by a hand-over changes victims only much later.
        assert _cache_state(batched) == _cache_state(scalar)
        assert [_checkpoint_state(*region) for region in batched._regions()] == [
            _checkpoint_state(*region) for region in scalar._regions()
        ]


class _StoreLogProbe(PersistenceMechanism):
    """Copies its region's interval store log at every interval end."""

    name = "store-log-probe"

    def __init__(self) -> None:
        super().__init__()
        self.logs: list[tuple[int, list[int], list[int]]] = []

    def on_interval_end(self, ctx):
        stores = ctx.stores
        self.logs.append(
            (ctx.interval_index, stores.addresses.tolist(), stores.sizes.tolist())
        )
        return 0


def _store_log_trace() -> Trace:
    """Stack and heap loads, stores and computes over two and a half
    chunks, with a page-straddling store, a three-page store and a store
    of size 0 in each region."""
    rng = np.random.default_rng(5)
    n = CHUNK_OPS * 5 // 2
    kinds = rng.choice(
        [int(OpKind.READ), int(OpKind.WRITE), int(OpKind.COMPUTE)], n, p=[0.3, 0.5, 0.2]
    )
    on_stack = rng.random(n) < 0.5
    offsets = rng.integers(0, 8192, n) * 8
    addresses = np.where(
        on_stack, DEFAULT_STACK.end - 0x10_0000 + offsets, DEFAULT_HEAP.start + offsets
    )
    sizes = np.where(kinds == int(OpKind.COMPUTE), 3, 8)
    odd = [
        (n // 3, DEFAULT_STACK.end - 0x8000 - 8, 16),
        (n // 3 + 1, DEFAULT_HEAP.start + 0x4000 - 8, 16),
        (CHUNK_OPS + 5, DEFAULT_STACK.end - 0x10_0000 + 0x2000, 2 * 4096 + 8),
        (CHUNK_OPS + 6, DEFAULT_HEAP.start + 0x2000 + 64, 2 * 4096 + 8),
        (2 * CHUNK_OPS - 3, DEFAULT_STACK.end - 0x10_0000 + 64, 0),
        (2 * CHUNK_OPS - 2, DEFAULT_HEAP.start + 64, 0),
    ]
    for i, address, size in odd:
        kinds[i], addresses[i], sizes[i] = int(OpKind.WRITE), address, size
    ops = TraceBuilder()
    ops.extend(kinds, addresses, sizes)
    return Trace(ops.to_array(), DEFAULT_STACK, DEFAULT_HEAP)


class TestStoreLog:
    """The store log each engine hands a region's mechanism at an interval
    end: every store of that region since the interval started, address
    and size, in op order, the same on both engines."""

    @pytest.mark.parametrize(
        "interval",
        [{"interval_ops": 3_001}, {"interval_cycles": 60_000}],
        ids=["interval_ops", "interval_cycles"],
    )
    def test_engines_log_equal_stores(self, interval):
        trace = _store_log_trace()
        probes = []
        for engine_cls in (ExecutionEngine, BatchedExecutionEngine):
            engine = engine_cls(
                config=setup_i(),
                stack_range=trace.stack_range,
                mechanism=_StoreLogProbe(),
                heap_range=trace.heap_range,
                heap_mechanism=_StoreLogProbe(),
            )
            engine.run(trace, **interval)
            # Intervals end mid-chunk, and some span a chunk edge.
            assert len(engine.stats.intervals) > 3
            probes.append((engine.mechanism.logs, engine.heap_mechanism.logs))
        (scalar_stack, scalar_heap), batched = probes
        assert batched == probes[0]
        for logs, region in (
            (scalar_stack, DEFAULT_STACK), (scalar_heap, DEFAULT_HEAP)
        ):
            sizes = [size for _, _, entry in logs for size in entry]
            assert {0, 16, 2 * 4096 + 8} <= set(sizes)
            assert all(
                region.contains(address) for _, entry, _ in logs for address in entry
            )

    def test_ops_intervals_log_their_own_stores(self):
        # The oracle: interval k of an ops-mode run logs the region stores
        # among ops [k * N, (k + 1) * N) of the trace, in op order.
        trace = _store_log_trace()
        n = 3_001
        engine = BatchedExecutionEngine(
            config=setup_i(),
            stack_range=trace.stack_range,
            mechanism=_StoreLogProbe(),
            heap_range=trace.heap_range,
            heap_mechanism=_StoreLogProbe(),
        )
        engine.run(trace, interval_ops=n)
        arr = trace.array
        for mechanism, region in (
            (engine.mechanism, DEFAULT_STACK),
            (engine.heap_mechanism, DEFAULT_HEAP),
        ):
            assert len(mechanism.logs) == -(-len(arr) // n)
            for k, addresses, sizes in mechanism.logs:
                window = arr[k * n : (k + 1) * n]
                stores = window[
                    (window["kind"] == int(OpKind.WRITE))
                    & (window["address"] >= region.start)
                    & (window["address"] < region.end)
                ]
                assert addresses == stores["address"].tolist()
                assert sizes == stores["size"].tolist()

    def test_dirtybit_multi_page_and_empty_stores(self):
        # A store dirties every page it spans and a size-0 store none, on
        # both regions and both engines.
        trace = _store_log_trace()
        scalar, batched = run_both(
            trace,
            mechanism_factory=DirtyBitPersistence,
            heap_factory=DirtyBitPersistence,
            interval_ops=3_001,
        )
        assert batched == scalar
        log = StoreLog()
        log.append(0x5000 - 8, 16)
        log.append(0x9000 + 64, 2 * 4096 + 8)
        log.append(0x20000, 0)
        assert touched_pages(log, 4096).tolist() == [4, 5, 9, 10, 11]


class _OverBound(PersistenceMechanism):
    """Batches and charges one cycle per store, but bounds every store at
    10 000 cycles: the deferred-cost bound reaches an interval boundary
    long before the exact cycle count does, so most deliveries it forces
    find no boundary yet."""

    name = "over-bound"
    supports_batching = True

    def __init__(self) -> None:
        super().__init__()
        self.deliveries = 0

    def on_store(self, address, size, now):
        super().on_store(address, size, now)
        return 1

    def on_store_batch(self, addresses, sizes, now):
        super().on_store_batch(addresses, sizes, now)
        self.deliveries += 1
        return len(addresses)

    def store_cost_bound_array(self, addresses, sizes):
        return np.full(len(addresses), 10_000, dtype=np.int64)


class TestOverEstimatedBound:
    """A bound that reaches the boundary early makes the engine deliver the
    deferred hooks, find the exact cycle count short of the boundary and
    keep going."""

    @pytest.mark.parametrize(
        "trace_factory",
        [lambda: quicksort_workload(seed=7), _mixed_density_trace],
        ids=["quicksort", "mixed_density"],
    )
    def test_matches_scalar(self, trace_factory):
        trace = trace_factory()
        engines = []
        for engine_cls in (ExecutionEngine, BatchedExecutionEngine):
            engine = engine_cls(
                config=setup_i(),
                stack_range=trace.stack_range,
                mechanism=_OverBound(),
            )
            engine.run(trace, interval_cycles=25_000)
            engines.append(engine)
        scalar, batched = engines
        # Far more deliveries than intervals: most were forced by the bound
        # and crossed no boundary.
        assert batched.mechanism.deliveries > 2 * len(batched.stats.intervals)
        assert snapshot(batched, batched.stats) == snapshot(scalar, scalar.stats)
        assert _cache_state(batched) == _cache_state(scalar)


def _fig_run(trace, engine_cls, stack_factory, heap_factory=None, **run_kwargs):
    """*trace* on one engine the way the figures run it: fixed costs scaled
    to the trace clock, 10 paper-ms intervals unless *run_kwargs* say
    otherwise."""
    base = vanilla_cycles(trace)
    engine = engine_cls(
        config=setup_i(),
        stack_range=trace.stack_range,
        mechanism=stack_factory(),
        heap_range=trace.heap_range,
        heap_mechanism=heap_factory() if heap_factory is not None else None,
        fixed_cost_scale=fixed_cost_scale_for(base),
    )
    run_kwargs.setdefault("interval_cycles", scaled_interval_cycles(base, 10.0))
    engine.run(trace, **run_kwargs)
    return engine


def _ssp(us: float):
    return lambda: SspPersistence(consolidation_interval_us=us)


class _HookReturns:
    """Wraps ``native.walker`` and counts the walk's returns for a hook: at
    an ``F_HOOK`` op whose hook is due, ``ctl[C_NOW] >= ctl[C_HOOK_AT]``."""

    def __init__(self, monkeypatch) -> None:
        self.count = 0
        walker = native.walker

        def counting(hierarchy, kinds, addrs, sizes, flags, *rest):
            walk = walker(hierarchy, kinds, addrs, sizes, flags, *rest)
            step = walk.step
            ctl = walk.ctl

            def counted_step():
                step()
                i = ctl[native.C_I]
                if (
                    i < ctl[native.C_END]
                    and flags[i] & native.F_HOOK
                    and ctl[native.C_NOW] >= ctl[native.C_HOOK_AT]
                ):
                    self.count += 1

            walk.step = counted_step
            return walk

        monkeypatch.setattr(native, "walker", counting)


class TestDeferredHooks:
    """SSP's hooks before its next consolidation deadline charge nothing, so
    the walk records them and the engine replays them later, in op order
    and at their own cycle counts.  Runs at figure scale, where the
    consolidation thread fires inside the trace."""

    @pytest.mark.parametrize(
        "stack, heap",
        [
            (_ssp(1000.0), None),
            (_ssp(10.0), None),
            # Figure 9's pairs: both regions in SSP, each with its own
            # deadline, and Prosper next to a heap SSP (every hook due).
            (_ssp(10.0), _ssp(10.0)),
            (_ssp(100.0), _ssp(100.0)),
            (ProsperPersistence, _ssp(10.0)),
        ],
        ids=["ssp-1ms", "ssp-10us", "fig9-ssp-10us", "fig9-ssp-100us", "fig9-prosper"],
    )
    @pytest.mark.parametrize("workload", ["gapbs_pr", "ycsb_mem"])
    def test_matches_scalar(self, workload, stack, heap):
        trace = WORKLOADS[workload]()
        scalar, batched = (
            _fig_run(trace, cls, stack, heap)
            for cls in (ExecutionEngine, BatchedExecutionEngine)
        )
        assert snapshot(batched, batched.stats) == snapshot(scalar, scalar.stats)
        assert _cache_state(batched) == _cache_state(scalar)
        for attr in ("mechanism", "heap_mechanism"):
            mechs = getattr(scalar, attr), getattr(batched, attr)
            if isinstance(mechs[0], SspPersistence):
                assert mechs[0].consolidation_invocations > 0
                assert [_ssp_state(m) for m in mechs[1:]] == [_ssp_state(mechs[0])]

    def test_run_ending_mid_interval(self):
        # No final checkpoint: the hooks recorded after the last interval
        # end are replayed at the end of their chunk.
        trace = WORKLOADS["gapbs_pr"]()
        scalar, batched = (
            _fig_run(trace, cls, _ssp(100.0), final_checkpoint=False)
            for cls in (ExecutionEngine, BatchedExecutionEngine)
        )
        assert snapshot(batched, batched.stats) == snapshot(scalar, scalar.stats)
        assert _ssp_state(batched.mechanism) == _ssp_state(scalar.mechanism)

    def test_walk_returns_only_for_due_hooks(self, monkeypatch):
        trace = WORKLOADS["gapbs_pr"]()
        returns = _HookReturns(monkeypatch)
        batched = _fig_run(
            trace, BatchedExecutionEngine, lambda: CallCountingSsp(1000.0)
        )
        mechanism = batched.mechanism
        assert 0 < returns.count <= mechanism.consolidation_invocations
        # Far fewer than the SSP accesses, every one of which ran its hook,
        # at the walk's return or replayed.
        calls = mechanism.calls
        assert calls == batched.stats.stack_writes + batched.stats.stack_reads
        assert 20 * returns.count < calls


class CallCountingSsp(SspPersistence):
    """SSP that counts its hook calls: at the walk's return or replayed."""

    def __init__(self, consolidation_interval_us: float = 10.0) -> None:
        super().__init__(consolidation_interval_us)
        self.calls = 0

    def on_store(self, address, size, now):
        self.calls += 1
        return super().on_store(address, size, now)

    def on_load(self, address, size, now):
        self.calls += 1
        return super().on_load(address, size, now)


class _LoadProbe(PersistenceMechanism):
    """Defines only ``on_load``, which charges 3 cycles.  It declares
    batching, which a mechanism that takes loads cannot use."""

    name = "load-probe"
    supports_batching = True

    def __init__(self) -> None:
        super().__init__()
        self.loads: list[tuple[int, int]] = []

    def on_load(self, address, size, now):
        self.loads.append((address, now))
        return 3


def _recording_walker(monkeypatch) -> list[tuple]:
    """Wraps ``native.walker``; returns the list of the (kinds, flags,
    bounds) each built walk got."""
    built = []
    walker = native.walker

    def recording(hierarchy, kinds, addrs, sizes, flags, bounds=None, times=None):
        built.append((kinds.copy(), flags.copy(), bounds))
        return walker(hierarchy, kinds, addrs, sizes, flags, bounds, times)

    monkeypatch.setattr(native, "walker", recording)
    return built


class TestHookRouting:
    """A hook reaches a mechanism only for the kinds of access its class
    defines, and both engines count every region access in its stats."""

    def test_romulus_walk_returns_only_at_stores(self, monkeypatch):
        # Romulus logs stores and defines no load hook: the walk runs past
        # its loads, which the engine only counts.
        trace = WORKLOADS["gapbs_pr"]()
        returns = _HookReturns(monkeypatch)
        batched = _fig_run(trace, BatchedExecutionEngine, RomulusPersistence)
        stats = batched.stats
        assert stats.stack_reads > 0
        assert returns.count == stats.stack_writes > 0
        assert batched.mechanism.stats.loads_seen == stats.stack_reads

    @pytest.mark.parametrize(
        "stack, heap",
        [
            (NoPersistence, None),
            (RomulusPersistence, None),
            (DirtyBitPersistence, None),
            (ProsperPersistence, None),
            (_ssp(10.0), None),
            (_ssp(100.0), None),
            (_ssp(1000.0), None),
            (_ssp(10.0), _ssp(10.0)),
            (DirtyBitPersistence, _ssp(10.0)),
            (ProsperPersistence, _ssp(10.0)),
            (NoPersistence, NoPersistence),
            (ProsperPersistence, DirtyBitPersistence),
        ],
        ids=[
            "vanilla", "romulus", "dirtybit", "prosper", "ssp-10us",
            "ssp-100us", "ssp-1ms", "fig9-ssp", "fig9-dirtybit",
            "fig9-prosper", "vanilla-heap", "prosper-dirtybit-heap",
        ],
    )
    def test_mechanism_stats_match_scalar(self, stack, heap):
        trace = WORKLOADS["ycsb_mem"]()
        scalar, batched = (
            _fig_run(trace, cls, stack, heap)
            for cls in (ExecutionEngine, BatchedExecutionEngine)
        )
        for attr in ("mechanism", "heap_mechanism"):
            mechs = getattr(scalar, attr), getattr(batched, attr)
            if mechs[0] is None:
                continue
            assert dataclasses.asdict(mechs[1].stats) == dataclasses.asdict(
                mechs[0].stats
            )
            assert mechs[0].stats.loads_seen > 0
        stats = batched.stats
        assert batched.mechanism.stats.stores_seen == stats.stack_writes
        assert batched.mechanism.stats.loads_seen == stats.stack_reads
        if heap is not None:
            ops = trace.array
            address = ops["address"]
            in_heap = (
                (ops["kind"] <= OpKind.WRITE)
                & (address >= trace.heap_range.start)
                & (address < trace.heap_range.end)
            )
            writes = ops["kind"] == OpKind.WRITE
            heap_stats = batched.heap_mechanism.stats
            assert heap_stats.stores_seen == np.count_nonzero(in_heap & writes)
            assert heap_stats.loads_seen == np.count_nonzero(in_heap & ~writes)

    def test_a_load_only_mechanism_gets_per_op_loads(self, monkeypatch):
        trace = WORKLOADS["gapbs_pr"]()
        built = _recording_walker(monkeypatch)
        scalar, batched = (
            _fig_run(trace, cls, _LoadProbe)
            for cls in (ExecutionEngine, BatchedExecutionEngine)
        )
        assert snapshot(batched, batched.stats) == snapshot(scalar, scalar.stats)
        # Every load ran its hook at its own cycle count.
        assert batched.mechanism.loads == scalar.mechanism.loads
        assert len(batched.mechanism.loads) == batched.stats.stack_reads > 0
        assert batched.stats.inline_cycles == 3 * batched.stats.stack_reads
        # The walk stops at loads only: no store is flagged, for a hook or
        # a deferred bound.
        kinds = np.concatenate([k for k, _, _ in built])
        flags = np.concatenate([f for _, f, _ in built])
        assert np.any(flags == native.F_HOOK)
        assert not np.any(flags[kinds == OpKind.WRITE])

    def test_no_bounds_without_a_cycle_stop(self, monkeypatch):
        # Only a cycle stop reads the deferred-cost bound: a run with no
        # interval or with op-count intervals, and no armed deadline, builds
        # its walks without one, and matches the scalar engine.
        trace = WORKLOADS["quicksort"]()
        built = _recording_walker(monkeypatch)
        for run_kwargs, bounded in (
            ({}, False),
            ({"interval_ops": 997}, False),
            ({"interval_cycles": 25_000}, True),
        ):
            built.clear()
            engines = []
            for cls in (ExecutionEngine, BatchedExecutionEngine):
                engine = cls(
                    config=setup_i(),
                    stack_range=trace.stack_range,
                    mechanism=ProsperPersistence(),
                )
                engine.run(trace, **run_kwargs)
                engines.append(engine)
            scalar, batched = engines
            assert snapshot(batched, batched.stats) == snapshot(scalar, scalar.stats)
            assert built
            assert all((b is not None) == bounded for _, _, b in built), run_kwargs

    def test_an_armed_deadline_builds_bounds(self, monkeypatch):
        trace = WORKLOADS["quicksort"]()
        built = _recording_walker(monkeypatch)
        injector = FaultInjector()
        injector.arm_cycle(10**15)
        engine = BatchedExecutionEngine(
            config=setup_i(),
            stack_range=trace.stack_range,
            mechanism=ProsperPersistence(),
            fault_injector=injector,
        )
        engine.run(trace)
        assert built and all(b is not None for _, _, b in built)


def _ssp_state(mechanism) -> dict:
    """SSP's consolidation counters and per-page shadow state."""
    return {
        "invocations": mechanism.consolidation_invocations,
        "merged": mechanism.consolidated_lines_total,
        "interference": mechanism.stats.inline_overhead_cycles,
        "next": mechanism.hook_deadline,
        "pages": {
            page: (sorted(s.dirty_lines), sorted(s.unconsolidated_lines), s.last_write_now)
            for page, s in mechanism._pages.items()
        },
        "queue": list(mechanism._merge_queue),
    }


class TestConfigurationCorners:
    def test_setup_ii(self):
        assert_equivalent(
            ycsb_mem(OPS, seed=3),
            mechanism_factory=ProsperPersistence,
            config_factory=setup_ii,
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


def _overflowing_trace(compute_ops: int = 0) -> Trace:
    stack = AddressRange(0x7000_0000, 0x7000_0400)  # 1 KiB stack
    ops = TraceBuilder()
    for _ in range(compute_ops):
        ops.compute(1)
    for _ in range(6):
        ops.call(256)
        ops.write(stack.end - 8)
    return Trace(ops.to_array(), stack)


def _assert_overflow_identical(trace: Trace, mechanism_factory) -> None:
    outcomes = []
    for engine_cls in (ExecutionEngine, BatchedExecutionEngine):
        engine = engine_cls(
            stack_range=trace.stack_range, mechanism=mechanism_factory()
        )
        with pytest.raises(RuntimeError) as excinfo:
            engine.run(trace, interval_cycles=50)
        outcomes.append((str(excinfo.value), snapshot(engine, engine.stats)))
    assert outcomes[0] == outcomes[1]


class TestFaultEquivalence:
    def test_stack_overflow_identical(self):
        # A cold cache with no mechanism.
        _assert_overflow_identical(_overflowing_trace(), NoPersistence)

    def test_stack_overflow_in_vector_mode(self):
        # The input that once took the retired vectorized-run mode: leading
        # COMPUTE ops make the chunk hit-dense, and Prosper's batched hooks
        # see the writes before the overflow.
        _assert_overflow_identical(
            _overflowing_trace(compute_ops=256), ProsperPersistence
        )

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
