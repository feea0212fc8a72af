"""Tests for repro.memory.hierarchy: the L1/L2/L3 + DRAM/NVM stack."""

import pytest

from repro.config import CACHE_LINE_BYTES, setup_i, setup_ii
from repro.memory.hierarchy import MemoryHierarchy


def hybrid(nvm_start: int = 0x8000_0000) -> MemoryHierarchy:
    return MemoryHierarchy(setup_i(), nvm_resident=[(nvm_start, 1 << 48)])


class TestDemandPath:
    def test_cold_miss_goes_to_memory(self):
        h = MemoryHierarchy(setup_i())
        result = h.access(0x1000, 8, is_write=False)
        assert result.hit_level == "mem"
        expected = (
            setup_i().l1d.latency_cycles
            + setup_i().l2.latency_cycles
            + setup_i().l3.latency_cycles
            + h.dram.read_latency_cycles
        )
        assert result.latency_cycles == expected

    def test_second_access_hits_l1(self):
        h = MemoryHierarchy(setup_i())
        h.access(0x1000, 8, False)
        result = h.access(0x1000, 8, False)
        assert result.hit_level == "L1"
        assert result.latency_cycles == setup_i().l1d.latency_cycles

    def test_line_straddling_access_charges_both_lines(self):
        h = MemoryHierarchy(setup_i())
        h.access(0x1000, 8, False)  # warm line 0x1000//64
        one = h.access(0x1000, 8, False).latency_cycles
        straddle = h.access(0x103C, 16, False)  # crosses into next line
        assert straddle.latency_cycles > one

    def test_nvm_resident_address_reads_from_nvm(self):
        h = hybrid()
        dram_r = h.access(0x1000, 8, False).latency_cycles
        nvm_r = h.access(0x8000_0000, 8, False).latency_cycles
        assert nvm_r > dram_r
        assert h.nvm.stats.reads == 1

    def test_multi_line_access_reads_each_line_from_its_own_device(self):
        # The NVM region starts mid-access: the first line is DRAM-backed,
        # the second NVM-backed.
        boundary = 0x8000_0000
        h = hybrid(nvm_start=boundary)
        result = h.access(boundary - 8, 16, is_write=False)
        assert result.hit_level == "mem"
        assert h.dram.stats.reads == 1
        assert h.nvm.stats.reads == 1
        lat = setup_i().l1d.latency_cycles + setup_i().l2.latency_cycles
        lat += setup_i().l3.latency_cycles
        assert result.latency_cycles == (
            2 * lat + h.dram.read_latency_cycles + h.nvm.read_latency_cycles
        )

    def test_multi_line_access_leaving_nvm_reads_dram_tail(self):
        # NVM below the split: first line NVM, second DRAM.
        split = 0x4000
        h = MemoryHierarchy(setup_i(), nvm_resident=[(0, split)])
        h.access(split - 4, 8, is_write=False)
        assert h.nvm.stats.reads == 1
        assert h.dram.stats.reads == 1

    def test_l1_eviction_falls_to_l2(self):
        h = MemoryHierarchy(setup_i())
        cfg = setup_i().l1d
        # Fill one L1 set beyond associativity with dirty lines.
        set_stride = cfg.num_sets * CACHE_LINE_BYTES
        for i in range(cfg.associativity + 2):
            h.access(i * set_stride, 8, is_write=True)
        # The first line was evicted from L1 but should hit in L2.
        result = h.access(0, 8, False)
        assert result.hit_level == "L2"


class TestPersistPath:
    def test_clwb_of_dirty_line_writes_nvm(self):
        h = hybrid()
        h.access(0x8000_0000, 8, is_write=True)
        before = h.nvm.stats.writes
        cost = h.clwb(0x8000_0000, 8)
        assert h.nvm.stats.writes == before + 1
        assert cost > 0

    def test_clwb_clean_line_is_cheap(self):
        h = hybrid()
        h.access(0x8000_0000, 8, is_write=False)
        cost = h.clwb(0x8000_0000, 8)
        assert cost == 2

    def test_clwb_without_nvm_raises(self):
        cfg = setup_ii()
        h = MemoryHierarchy(cfg)
        h.nvm = None
        with pytest.raises(RuntimeError):
            h.clwb(0x1000, 8)

    def test_clwb_burst_with_advancing_now_is_bounded(self):
        h = hybrid()
        lines = 200
        for i in range(lines):
            h.access(0x8000_0000 + i * CACHE_LINE_BYTES, 8, is_write=True)
        total = 0
        for i in range(lines):
            total += h.clwb(0x8000_0000 + i * CACHE_LINE_BYTES,
                            CACHE_LINE_BYTES, now=total)
        # Drain-rate bound: about one drain slot per line, not quadratic.
        drain = h.nvm._write_buffer.drain_cycles
        assert total < lines * drain * 3

    def test_persist_barrier_drains(self):
        h = hybrid()
        h.access(0x8000_0000, 8, True)
        h.clwb(0x8000_0000, 8)
        assert h.persist_barrier() >= 0
        assert h.persist_barrier() == 0  # idempotent once drained


class TestBulkCopies:
    def test_copy_costs_ordering(self):
        h = hybrid()
        size = 64 * 1024
        d2n = h.reliable_copy_to_nvm(h.dram, size).cycles
        n2n = h.reliable_copy_to_nvm(h.nvm, size).cycles
        assert d2n <= n2n

    def test_zero_copy_free(self):
        h = hybrid()
        assert h.reliable_copy_to_nvm(h.dram, 0).cycles == 0
        assert h.reliable_copy_to_nvm(h.nvm, 0).cycles == 0

    def test_latency_scale_reduces_fixed_part(self):
        h = hybrid()
        full = h.reliable_copy_to_nvm(h.dram, 4096, latency_scale=1.0).cycles
        scaled = h.reliable_copy_to_nvm(h.dram, 4096, latency_scale=0.01).cycles
        assert scaled < full

    def test_reset_stats(self):
        h = hybrid()
        h.access(0x1000, 8, False)
        h.reset_stats()
        assert h.l1.stats.accesses == 0
        assert h.dram.stats.reads == 0
