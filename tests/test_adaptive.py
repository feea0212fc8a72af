"""Tests for the adaptive extensions: granularity and watermark controllers,
and the adaptive Prosper mechanism."""

import numpy as np
import pytest

from repro.config import PAGE_BYTES, TrackerConfig
from repro.core.adaptive import (
    GRANULARITY_LADDER,
    PAGE_FALLBACK,
    GranularityController,
    IntervalProfile,
    WatermarkController,
)
from repro.core.tracker import ProsperTracker
from repro.cpu.engine import ExecutionEngine
from repro.cpu.ops import Op, OpKind
from repro.memory.address import AddressRange
from repro.persistence.adaptive import AdaptiveProsperPersistence

STACK = AddressRange(0x7000_0000, 0x7010_0000)


class TestIntervalProfile:
    def test_density(self):
        p = IntervalProfile(copied_bytes=2048, runs=4, page_footprint_bytes=4096)
        assert p.density == 0.5
        assert p.mean_run_bytes == 512

    def test_empty_profile(self):
        p = IntervalProfile(0, 0, 0)
        assert p.density == 0.0
        assert p.mean_run_bytes == 0.0


class TestGranularityController:
    def test_rejects_off_ladder_initial(self):
        with pytest.raises(ValueError):
            GranularityController(initial=24)

    def test_rejects_unordered_thresholds(self):
        with pytest.raises(ValueError):
            GranularityController(coarsen_density=0.1, refine_density=0.5)

    def test_coarsens_on_dense_intervals(self):
        c = GranularityController(initial=8)
        c.observe(IntervalProfile(3000, 10, 4096))  # density 0.73
        assert c.granularity == 16

    def test_refines_on_sparse_intervals(self):
        c = GranularityController(initial=64)
        c.observe(IntervalProfile(100, 5, 8192))  # density ~0.012
        assert c.granularity == 32

    def test_stays_put_in_the_middle(self):
        c = GranularityController(initial=16)
        c.observe(IntervalProfile(1500, 5, 4096))  # density ~0.37
        assert c.granularity == 16

    def test_empty_interval_is_ignored(self):
        c = GranularityController(initial=8)
        c.observe(IntervalProfile(0, 0, 0))
        assert c.granularity == 8

    def test_fallback_after_sustained_density(self):
        c = GranularityController(initial=128, fallback_patience=2)
        dense = IntervalProfile(4000, 1, 4096)  # density ~0.98
        c.observe(dense)
        assert not c.in_page_fallback  # patience not yet exhausted
        c.observe(dense)
        assert c.in_page_fallback
        assert c.granularity == PAGE_FALLBACK

    def test_fallback_recovers_on_sparse(self):
        c = GranularityController(initial=128, fallback_patience=1)
        c.observe(IntervalProfile(4000, 1, 4096))
        assert c.in_page_fallback
        c.observe(IntervalProfile(64, 4, 8192))
        assert c.granularity == GRANULARITY_LADDER[-1]

    def test_never_leaves_ladder(self):
        c = GranularityController(initial=8)
        for _ in range(10):
            c.observe(IntervalProfile(10, 2, 40960))  # very sparse
        assert c.granularity == 8  # clamped at the fine end


class TestWatermarkController:
    def test_bounds_respected(self):
        c = WatermarkController(initial_hwm=8, min_hwm=8, max_hwm=32)
        for _ in range(40):
            c.observe(memory_ops=100, stores=100)
        assert all(8 <= h <= 32 for h in c.history)

    def test_explores_unvisited_neighbours_first(self):
        c = WatermarkController(initial_hwm=20)
        c.observe(100, 100)
        assert c.hwm == 24  # upward neighbour explored first
        c.observe(100, 100)
        assert c.hwm in (28, 16, 20)

    def test_converges_down_when_low_hwm_is_cheaper(self):
        c = WatermarkController(initial_hwm=20, min_hwm=8, max_hwm=32)
        for _ in range(60):
            # Cost grows with HWM: the controller should walk to the floor.
            c.observe(memory_ops=c.history[-1] * 10, stores=100)
        assert c.hwm == 8

    def test_converges_up_when_high_hwm_is_cheaper(self):
        c = WatermarkController(initial_hwm=20, min_hwm=8, max_hwm=32)
        for _ in range(60):
            c.observe(memory_ops=(40 - c.history[-1]) * 10, stores=100)
        assert c.hwm == 32

    def test_zero_stores_noop(self):
        c = WatermarkController()
        assert c.observe(0, 0) == c.hwm

    def test_rejects_bad_initial(self):
        with pytest.raises(ValueError):
            WatermarkController(initial_hwm=40)


class TestAdaptiveProsper:
    def _run(self, mech, ops, interval_ops):
        engine = ExecutionEngine(stack_range=STACK, mechanism=mech)
        frame = Op(OpKind.CALL, size=STACK.size)
        engine.run([frame] + ops, interval_ops=interval_ops)
        return engine

    def test_streaming_triggers_coarsening(self):
        mech = AdaptiveProsperPersistence()
        # Dense sequential writes over whole pages, many intervals.
        ops = [
            Op(OpKind.WRITE, STACK.start + (i * 8) % (16 * PAGE_BYTES), 8)
            for i in range(40_000)
        ]
        self._run(mech, ops, interval_ops=4000)
        assert mech.current_granularity > 8
        assert len(mech.controller.transitions) >= 1

    def test_sparse_stays_fine(self):
        mech = AdaptiveProsperPersistence()
        ops = [
            Op(OpKind.WRITE, STACK.start + (i % 32) * PAGE_BYTES + 64, 8)
            for i in range(2000)
        ]
        self._run(mech, ops, interval_ops=200)
        assert mech.current_granularity == 8

    def test_page_fallback_checkpoints_pages(self):
        mech = AdaptiveProsperPersistence()
        # Hammer density until the controller falls back, then keep going.
        ops = [
            Op(OpKind.WRITE, STACK.start + (i * 8) % (4 * PAGE_BYTES), 8)
            for i in range(60_000)
        ]
        self._run(mech, ops, interval_ops=5000)
        assert mech.in_page_fallback
        # In fallback mode checkpoints are page-sized multiples.
        last = mech.stats.checkpoint_bytes[-1]
        assert last % PAGE_BYTES == 0 and last > 0
        # ...staged and committed through the Dirtybit page checkpoint.
        staged = mech.pages.staging.staged
        assert staged.committed
        assert staged.interval_index == mech.stats.intervals - 1
        assert sum(run.size for run in staged.runs) == last

    def test_granularity_history_recorded(self):
        mech = AdaptiveProsperPersistence()
        ops = [Op(OpKind.WRITE, STACK.start + 8, 8)] * 100
        self._run(mech, ops, interval_ops=50)
        assert mech.granularity_history[0] == 8

    def test_label_is_the_mechanism_name(self):
        assert AdaptiveProsperPersistence().variant_name == "prosper-adaptive"

    def test_store_bound_dominates_every_programmable_tracker(self):
        # The batched engine bounds a chunk's stores once, and an interval
        # end inside the chunk may swap in any ladder tracker.
        rng = np.random.default_rng(5)
        addresses = STACK.start + rng.integers(0, 1 << 16, 500)
        sizes = rng.integers(1, 300, 500)
        mech = AdaptiveProsperPersistence(
            granularity_controller=GranularityController(initial=128)
        )
        bound = mech.store_cost_bound_array(addresses, sizes)
        for granularity in GRANULARITY_LADDER:
            tracker = ProsperTracker(TrackerConfig().with_granularity(granularity))
            assert np.all(bound >= tracker.store_cost_bound_array(addresses, sizes))
        assert np.any(bound > mech.tracker.store_cost_bound_array(addresses, sizes))
