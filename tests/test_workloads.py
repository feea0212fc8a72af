"""Tests for repro.workloads: generators and trace analysis."""

import numpy as np
import pytest

from repro.cpu.ops import Op, OpKind, array_to_ops
from repro.workloads.apps import APP_PROFILES, app_workload, gapbs_pr, g500_sssp, ycsb_mem
from repro.workloads.callstack import quicksort_workload, recursive_workload
from repro.workloads.spec import SPEC_PROFILES, spec_workload
from repro.workloads.synthetic import (
    normal_workload,
    poisson_workload,
    random_workload,
    sparse_workload,
    stream_workload,
)
from repro.workloads.trace import Trace


def replay_sp(trace):
    """Replay CALL/RET and assert SP never leaves the stack region."""
    sp = trace.stack_range.end
    min_sp = sp
    for op in array_to_ops(trace.array):
        if op.kind == OpKind.CALL:
            sp -= op.size
        elif op.kind == OpKind.RET:
            sp += op.size
        if op.is_memory and trace.stack_range.contains(op.address):
            pass
        min_sp = min(min_sp, sp)
    return sp, min_sp


class TestSyntheticGenerators:
    def test_random_determinism(self):
        a = random_workload(num_writes=500, seed=3)
        b = random_workload(num_writes=500, seed=3)
        assert np.array_equal(a.array, b.array)

    def test_random_seed_changes_trace(self):
        a = random_workload(num_writes=500, seed=3)
        b = random_workload(num_writes=500, seed=4)
        assert not np.array_equal(a.array, b.array)

    def test_random_stays_in_array(self):
        t = random_workload(array_bytes=4096, num_writes=200)
        frame_base = t.stack_range.end - 4096
        for op in array_to_ops(t.array):
            if op.is_memory:
                assert frame_base <= op.address < t.stack_range.end

    def test_random_rejects_oversized_array(self):
        with pytest.raises(ValueError):
            random_workload(array_bytes=1 << 30)

    def test_stream_covers_every_word(self):
        t = stream_workload(array_bytes=1024, passes=1)
        writes = {op.address for op in array_to_ops(t.array) if op.kind == OpKind.WRITE}
        assert len(writes) == 1024 // 8

    def test_sparse_touches_once_per_page(self):
        t = sparse_workload(pages=4, rounds=1)
        writes = [op for op in array_to_ops(t.array) if op.kind == OpKind.WRITE]
        assert len(writes) == 4
        pages = {op.address // 4096 for op in writes}
        assert len(pages) == 4

    def test_sparse_sp_balanced(self):
        t = sparse_workload(pages=8, rounds=3)
        final_sp, _ = replay_sp(t)
        assert final_sp == t.stack_range.end

    def test_normal_poisson_have_compute_blocks(self):
        for t in (normal_workload(blocks=20), poisson_workload(blocks=20)):
            kinds = set(t.array["kind"].tolist())
            assert OpKind.COMPUTE in kinds
            assert OpKind.WRITE in kinds


class TestCallstackGenerators:
    def test_quicksort_sorts(self):
        # The generator asserts sortedness internally; reaching here is the test.
        t = quicksort_workload(elements=256)
        assert len(t.array) > 256

    def test_quicksort_sp_balanced(self):
        t = quicksort_workload(elements=128)
        final_sp, min_sp = replay_sp(t)
        assert final_sp == t.stack_range.end
        assert min_sp < t.stack_range.end

    def test_quicksort_heap_accesses_in_heap(self):
        t = quicksort_workload(elements=64)
        for op in array_to_ops(t.array):
            if op.is_memory and not t.stack_range.contains(op.address):
                assert t.heap_range.contains(op.address)

    def test_recursive_deepens_by_one_frame_per_cycle(self):
        t = recursive_workload(depth=4, descents=3, frame_bytes=256)
        final_sp, min_sp = replay_sp(t)
        # Deepest point: floor after 2 completed cycles + a full descent.
        assert min_sp == t.stack_range.end - (2 + 4) * 256
        assert final_sp == t.stack_range.end  # fully unwound at the end

    def test_recursive_rejects_too_many_cycles(self):
        with pytest.raises(ValueError):
            recursive_workload(depth=4, descents=100_000, frame_bytes=256)

    def test_recursive_names(self):
        assert recursive_workload(depth=16, descents=1).name == "rec-16"

    def test_recursive_rejects_too_deep(self):
        with pytest.raises(ValueError):
            recursive_workload(depth=100_000, frame_bytes=4096)


class TestAppModels:
    @pytest.mark.parametrize("name", sorted(APP_PROFILES))
    def test_stack_fraction_near_target(self, name):
        trace = app_workload(name, target_ops=40_000)
        target = APP_PROFILES[name].stack_fraction
        assert trace.stats.stack_fraction == pytest.approx(target, abs=0.12)

    def test_sp_balanced(self):
        for make in (gapbs_pr, g500_sssp, ycsb_mem):
            t = make(target_ops=10_000)
            final_sp, _ = replay_sp(t)
            assert final_sp == t.stack_range.end

    def test_ycsb_beyond_sp_fraction_substantial(self):
        t = ycsb_mem(target_ops=60_000)
        rows = t.writes_beyond_final_sp(20)
        total = sum(w for w, _ in rows)
        beyond = sum(b for _, b in rows)
        assert total > 0
        assert 0.15 < beyond / total < 0.75  # paper: ~36 %

    def test_heap_ops_within_heap(self):
        t = ycsb_mem(target_ops=5_000)
        for op in array_to_ops(t.array):
            if op.is_memory and not t.stack_range.contains(op.address):
                assert t.heap_range.contains(op.address)

    def test_deterministic(self):
        assert np.array_equal(gapbs_pr(5_000, seed=1).array, gapbs_pr(5_000, seed=1).array)


class TestSpecModels:
    def test_all_profiles_generate(self):
        for name in SPEC_PROFILES:
            t = spec_workload(name, target_ops=5_000)
            assert len(t.array) >= 5_000
            assert t.name == name

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            spec_workload("999.nonexistent")

    def test_mcf_scatters_more_than_perlbench(self):
        """mcf's stack writes should touch more distinct granules per write
        (low locality) than perlbench (tight interpreter frames)."""
        def granules_per_write(trace):
            writes = [
                op.address // 8
                for op in array_to_ops(trace.array)
                if op.kind == OpKind.WRITE and trace.stack_range.contains(op.address)
            ]
            return len(set(writes)) / len(writes)

        mcf = spec_workload("605.mcf_s", target_ops=30_000)
        perl = spec_workload("600.perlbench_s", target_ops=30_000)
        assert granules_per_write(mcf) > granules_per_write(perl)


class TestTraceContainer:
    def test_rejects_anything_but_a_trace_array(self):
        stack = random_workload(num_writes=10).stack_range
        for ops in ([Op(OpKind.WRITE, stack.start, 8)], np.zeros(3)):
            with pytest.raises(TypeError):
                Trace(ops, stack)

    def test_ops_aliases_the_array(self):
        t = random_workload(num_writes=10)
        assert t.ops is t.array

    @pytest.mark.parametrize("ends", [(), (0, 100, 100, 700), (350, 10**6)])
    def test_stack_write_runs_cut_the_writes_in_trace_order(self, ends):
        t = quicksort_workload(elements=32)
        edges = [0, *ends, len(t.array)]
        expected = [
            [
                (op.address, op.size)
                for op in array_to_ops(t.array[lo:hi])
                if op.kind == OpKind.WRITE and t.stack_range.contains(op.address)
            ]
            for lo, hi in zip(edges, edges[1:])
        ]
        runs = t.stack_write_runs(ends)
        assert [list(zip(addrs, sizes)) for addrs, sizes in runs] == expected


class TestTraceAnalysis:
    def test_interval_bounds_partition(self):
        t = random_workload(num_writes=1000)
        bounds = t._interval_bounds(10)
        assert sum(hi - lo for lo, hi in bounds) <= len(t.array)
        assert len(bounds) == 10

    def test_interval_analysis_rejects_bad_count(self):
        with pytest.raises(ValueError):
            random_workload(num_writes=10).final_sp_per_interval(0)

    def test_copy_sizes_page_vs_byte(self):
        t = sparse_workload(pages=16, rounds=4)
        page = t.copy_sizes(4, 4096)
        byte = t.copy_sizes(4, 8)
        assert sum(page) > sum(byte)

    def test_final_sp_per_interval_ends_at_top(self):
        t = recursive_workload(depth=4, descents=8)
        finals = t.final_sp_per_interval(4)
        assert finals[-1] == t.stack_range.end

    def test_stats_cached(self):
        t = random_workload(num_writes=100)
        assert t.stats is t.stats


class TestYcsbPhased:
    def test_two_phases_concatenate_sp_balanced(self):
        from repro.workloads.apps import ycsb_mem_phased

        t = ycsb_mem_phased(target_ops=20_000)
        final_sp, _ = replay_sp(t)
        assert final_sp == t.stack_range.end

    def test_load_phase_write_heavier(self):
        from repro.workloads.apps import ycsb_mem_phased

        t = ycsb_mem_phased(target_ops=30_000, load_fraction=0.5)
        ops = array_to_ops(t.array)
        half = len(ops) // 2
        def write_share(ops):
            writes = sum(
                1 for op in ops
                if op.kind == OpKind.WRITE and t.stack_range.contains(op.address)
            )
            reads = sum(
                1 for op in ops
                if op.kind == OpKind.READ and t.stack_range.contains(op.address)
            )
            return writes / max(1, writes + reads)
        assert write_share(ops[:half]) > write_share(ops[half:])

    def test_rejects_bad_fraction(self):
        import pytest as _pytest
        from repro.workloads.apps import ycsb_mem_phased

        with _pytest.raises(ValueError):
            ycsb_mem_phased(load_fraction=0.0)

    def test_stack_fraction_still_near_target(self):
        from repro.workloads.apps import ycsb_mem_phased

        t = ycsb_mem_phased(target_ops=40_000)
        assert 0.05 < t.stats.stack_fraction < 0.35
