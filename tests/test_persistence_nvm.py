"""Tests for the NVM-resident mechanisms: flush/undo/redo, Romulus, SSP."""

import random

import pytest

from repro.config import CACHE_LINE_BYTES, PAGE_BYTES
from repro.cpu.engine import ExecutionEngine
from repro.cpu.ops import Op, OpKind
from repro.memory.address import AddressRange
from repro.persistence.logging import (
    FlushPersistence,
    RedoLogPersistence,
    UndoLogPersistence,
)
from repro.persistence.romulus import RomulusPersistence
from repro.persistence.ssp import (
    CONSOLIDATION_WAKEUP_CYCLES,
    SCAN_CYCLES_PER_PAGE,
    SspPersistence,
)

STACK = AddressRange(0x7000_0000, 0x7010_0000)


def run(mechanism, ops, interval_ops=None):
    engine = ExecutionEngine(stack_range=STACK, mechanism=mechanism)
    stats = engine.run(ops, interval_ops=interval_ops or max(1, len(ops)))
    return engine, stats


def stack_writes(addresses):
    return [Op(OpKind.WRITE, a, 8) for a in addresses]


class TestFlush:
    def test_every_store_flushes(self):
        mech = FlushPersistence()
        _, stats = run(mech, stack_writes([STACK.start + 8] * 10))
        assert mech.flushes == 10
        assert stats.inline_cycles > 0

    def test_region_lives_in_nvm(self):
        mech = FlushPersistence()
        engine, _ = run(mech, stack_writes([STACK.start + 8]))
        assert engine.hierarchy.nvm.stats.reads >= 1  # demand miss hit NVM

    def test_sp_oracle_skips_dead_stores(self):
        # All writes are below the final SP (oracle says final SP is high).
        oracle = lambda i: STACK.end  # noqa: E731
        mech = FlushPersistence(sp_oracle=oracle)
        run(mech, stack_writes([STACK.start + 8] * 10))
        assert mech.flushes == 0
        assert mech.skipped == 10
        assert mech.sp_aware

    def test_sp_awareness_is_faster(self):
        ops = stack_writes([STACK.start + 8] * 200)
        blind = FlushPersistence()
        _, blind_stats = run(blind, list(ops))
        aware = FlushPersistence(sp_oracle=lambda i: STACK.end)
        _, aware_stats = run(aware, list(ops))
        assert aware_stats.total_cycles < blind_stats.total_cycles


class TestUndoLog:
    def test_logs_once_per_location_per_interval(self):
        mech = UndoLogPersistence()
        run(mech, stack_writes([STACK.start + 8] * 5))
        assert mech.log_entries == 1

    def test_distinct_locations_log_separately(self):
        mech = UndoLogPersistence()
        run(mech, stack_writes([STACK.start + i * 8 for i in range(5)]))
        assert mech.log_entries == 5

    def test_log_resets_each_interval(self):
        mech = UndoLogPersistence()
        run(mech, stack_writes([STACK.start + 8] * 4), interval_ops=2)
        assert mech.log_entries == 2  # once per interval

    def test_log_bytes_include_header(self):
        mech = UndoLogPersistence()
        run(mech, stack_writes([STACK.start + 8]))
        assert mech.log_bytes == 16 + 8


class TestRedoLog:
    def test_every_store_appends(self):
        mech = RedoLogPersistence()
        run(mech, stack_writes([STACK.start + 8] * 5))
        assert mech.log_entries == 5

    def test_loads_pay_lookup(self):
        mech = RedoLogPersistence()
        _, stats = run(mech, [Op(OpKind.READ, STACK.start + 8, 8)] * 4)
        assert stats.inline_cycles == 4 * 8  # REDO_LOOKUP_CYCLES each

    def test_commit_applies_unique_locations(self):
        mech = RedoLogPersistence()
        run(mech, stack_writes([STACK.start + 8] * 5 + [STACK.start + 16]))
        assert mech.stats.checkpoint_bytes == [2 * 8]


class TestRomulus:
    def test_log_records_per_store(self):
        mech = RomulusPersistence()
        engine = ExecutionEngine(stack_range=STACK, mechanism=mech)
        # No interval end drains the log: the engine holds one record per
        # store, and each store appended one record to NVM.
        engine.run(
            stack_writes([STACK.start + 8] * 7), interval_ops=100,
            final_checkpoint=False,
        )
        assert len(engine._stack_stores) == mech.stats.stores_seen == 7
        assert engine.hierarchy.nvm.stats.writes == 7

    def test_no_coalescing_in_copy(self):
        # Five stores to the same address are copied five times.
        mech = RomulusPersistence()
        run(mech, stack_writes([STACK.start + 8] * 5))
        assert mech.stats.total_checkpoint_bytes == 5 * 8

    def test_log_drains_at_interval(self):
        mech = RomulusPersistence()
        engine, _ = run(mech, stack_writes([STACK.start + 8] * 4), interval_ops=2)
        assert len(engine._stack_stores) == 0
        assert mech.stats.checkpoint_bytes == [2 * 8, 2 * 8]

    def test_costlier_than_flush(self):
        ops = stack_writes([STACK.start + i * 8 for i in range(300)])
        flush = FlushPersistence()
        _, flush_stats = run(flush, list(ops), interval_ops=100)
        romulus = RomulusPersistence()
        _, rom_stats = run(romulus, list(ops), interval_ops=100)
        assert rom_stats.total_cycles > flush_stats.total_cycles


class TestSsp:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            SspPersistence(consolidation_interval_us=0)

    def test_variant_name(self):
        assert SspPersistence(10).variant_name == "ssp-10us"
        assert SspPersistence(1000).variant_name == "ssp-1ms"

    def test_tracks_dirty_lines_per_page(self):
        mech = SspPersistence(1000)
        run(mech, stack_writes([STACK.start + 8, STACK.start + 70]))
        assert mech.tracked_pages == 1
        # Two distinct cache lines committed at interval end.
        assert mech.stats.checkpoint_bytes == [2 * 64]

    def test_consolidation_thread_runs(self):
        mech = SspPersistence(10)
        ops = stack_writes([STACK.start + 8] * 50) + [
            Op(OpKind.COMPUTE, size=200_000)
        ] + stack_writes([STACK.start + 8] * 50)
        run(mech, ops)
        assert mech.consolidation_invocations > 0

    def test_faster_consolidation_costs_more(self):
        ops = []
        for i in range(400):
            ops.append(Op(OpKind.WRITE, STACK.start + (i % 512) * 8, 8))
            ops.append(Op(OpKind.COMPUTE, size=500))
        fast = SspPersistence(10)
        _, fast_stats = run(fast, list(ops), interval_ops=100)
        slow = SspPersistence(1000)
        _, slow_stats = run(slow, list(ops), interval_ops=100)
        assert fast.consolidation_invocations > slow.consolidation_invocations
        assert fast_stats.total_cycles >= slow_stats.total_cycles

    def test_merged_lines_counted(self):
        mech = SspPersistence(10)
        ops = stack_writes([STACK.start + 8]) + [
            Op(OpKind.COMPUTE, size=500_000),
            Op(OpKind.READ, STACK.start + 8, 8),
        ]
        run(mech, ops)
        assert mech.consolidated_lines_total >= 1


class _FullScanSsp(SspPersistence):
    """SSP with the consolidation pass as a scan of every tracked page: the
    reference for the merge queue."""

    def _consolidate(self, invocation_now: int) -> int:
        self.consolidation_invocations += 1
        scale = self.fixed_scale
        cycles = round(CONSOLIDATION_WAKEUP_CYCLES * scale)
        cycles += round(len(self._pages) * SCAN_CYCLES_PER_PAGE * scale)
        merged_bytes = 0
        inactive_before = invocation_now - self._consolidation_cycles
        for state in self._pages.values():
            if not state.unconsolidated_lines:
                continue
            if state.last_write_now >= inactive_before:
                continue
            merged = len(state.unconsolidated_lines)
            merged_bytes += merged * CACHE_LINE_BYTES
            self.consolidated_lines_total += merged
            state.unconsolidated_lines.clear()
        if merged_bytes:
            hierarchy = self.hierarchy
            cycles += hierarchy.reliable_copy_to_nvm(
                hierarchy.nvm, merged_bytes, scale
            ).cycles
        return cycles


class TestSspMergeQueue:
    """The consolidation pass merges a prefix of the pages queued by last
    write; it must merge exactly what a scan of every page merges."""

    @staticmethod
    def _pair(interval_us: float = 1.0, scale: float = 1.0):
        mechs = []
        for cls in (_FullScanSsp, SspPersistence):
            mech = cls(interval_us)
            # Attaches the mechanism, with fixed costs and the period
            # scaled by *scale*.
            ExecutionEngine(stack_range=STACK, mechanism=mech, fixed_cost_scale=scale)
            mechs.append(mech)
        return mechs

    @staticmethod
    def _totals(mech) -> tuple:
        return (
            mech.consolidation_invocations,
            mech.consolidated_lines_total,
            {p: sorted(s.unconsolidated_lines) for p, s in mech._pages.items()},
        )

    def test_rewritten_page_moves_to_the_back(self):
        reference, queued = self._pair()
        period = queued._consolidation_cycles
        page = STACK.start
        for mech in (reference, queued):
            assert mech.on_store(page, 8, 1) == 0
            assert mech.on_store(page + PAGE_BYTES, 8, 2) == 0
        # Page 0 is written again after it entered the queue, at the first
        # deadline: the pass finds it active and page 1 inactive behind it.
        costs = [m.on_store(page + 64, 8, period + 100) for m in (reference, queued)]
        assert costs[0] > 0 and costs == costs[::-1]
        assert reference.consolidated_lines_total == 1
        assert self._totals(queued) == self._totals(reference)
        assert list(queued._merge_queue) == [page // PAGE_BYTES]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_accesses_match_a_full_scan(self, seed):
        rng = random.Random(seed)
        # A compressed clock: a period of 600 to 3000 cycles.
        reference, queued = self._pair(rng.choice((10.0, 20.0, 50.0)), scale=0.02)
        period = queued._consolidation_cycles
        now = 0
        for _ in range(4000):
            # Mostly short steps, so pages stay active across passes, and
            # now and then a quiet spell that lets every page merge.
            if rng.random() < 0.02:
                now += rng.randrange(period, 3 * period)
            else:
                now += rng.randrange(0, period // 8)
            # The first lines of 24 pages, with accesses spanning lines.
            address = STACK.start + rng.randrange(24) * PAGE_BYTES + rng.randrange(256)
            size = rng.choice((0, 1, 8, 8, 64, 200))
            for mech in (reference, queued):  # as the engine does
                mech.hierarchy.now = now
            if rng.random() < 0.7:
                costs = [m.on_store(address, size, now) for m in (reference, queued)]
            else:
                costs = [m.on_load(address, size, now) for m in (reference, queued)]
            assert costs[0] == costs[1]
        assert self._totals(queued) == self._totals(reference)
        assert reference.consolidation_invocations > 100
        assert reference.consolidated_lines_total > 100


class TestCapabilityMatrix:
    def test_nvm_mechanisms_disallow_dram_stack(self):
        for cls in (
            FlushPersistence,
            UndoLogPersistence,
            RedoLogPersistence,
            RomulusPersistence,
            SspPersistence,
        ):
            assert cls.region_in_nvm
            assert not cls.capabilities.allows_stack_in_dram
            assert not cls.capabilities.stack_pointer_aware

    def test_logging_needs_compiler_support(self):
        assert not UndoLogPersistence.capabilities.works_without_compiler_support
        assert not RedoLogPersistence.capabilities.works_without_compiler_support
        # Romulus-as-hardware-co-design does not.
        assert RomulusPersistence.capabilities.works_without_compiler_support
