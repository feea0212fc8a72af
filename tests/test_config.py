"""Tests for repro.config: system configurations and unit conversions."""

import pytest

from repro.config import (
    CACHE_LINE_BYTES,
    CPU_FREQ_HZ,
    PAGE_BYTES,
    WORD_BITS,
    CacheConfig,
    DramConfig,
    NvmConfig,
    TrackerConfig,
    cycles_to_ns,
    ms_to_cycles,
    ns_to_cycles,
    setup_i,
    setup_ii,
)
from repro.core import bitmap


class TestUnitConversions:
    def test_ns_to_cycles_at_3ghz(self):
        assert ns_to_cycles(1.0) == 3
        assert ns_to_cycles(100.0) == 300

    def test_ns_to_cycles_rounds(self):
        assert ns_to_cycles(0.5) == 2  # 1.5 cycles rounds to 2

    def test_ns_to_cycles_never_negative(self):
        assert ns_to_cycles(0.0) == 0

    def test_cycles_to_ns_roundtrip(self):
        assert cycles_to_ns(ns_to_cycles(60.0)) == pytest.approx(60.0)

    def test_ms_to_cycles(self):
        assert ms_to_cycles(10.0) == 30_000_000

    def test_custom_frequency(self):
        assert ns_to_cycles(10.0, freq_hz=1_000_000_000) == 10


class TestCacheConfig:
    def test_num_sets(self):
        cfg = CacheConfig(32 * 1024, 8, 3, 16)
        assert cfg.num_sets == 64  # 32KiB / (8 ways * 64B)

    def test_l2_geometry(self):
        cfg = setup_i().l2
        assert cfg.num_sets * cfg.associativity * cfg.line_bytes == 512 * 1024


class TestDeviceConfigs:
    def test_dram_latency_cycles(self):
        cfg = DramConfig(read_latency_ns=60.0)
        assert cfg.read_latency_cycles == 180

    def test_nvm_write_slower_than_read(self):
        cfg = NvmConfig()
        assert cfg.write_latency_cycles > cfg.read_latency_cycles

    def test_nvm_buffers_match_table_ii(self):
        cfg = NvmConfig()
        assert cfg.read_buffer_entries == 64
        assert cfg.write_buffer_entries == 48


class TestTrackerConfig:
    def test_defaults_match_paper(self):
        cfg = TrackerConfig()
        assert cfg.lookup_table_entries == 16
        assert cfg.high_water_mark == 24
        assert cfg.low_water_mark == 8
        assert cfg.granularity_bytes == 8

    def test_rejects_non_multiple_of_8_granularity(self):
        with pytest.raises(ValueError):
            TrackerConfig(granularity_bytes=12)

    def test_rejects_zero_granularity(self):
        with pytest.raises(ValueError):
            TrackerConfig(granularity_bytes=0)

    def test_rejects_out_of_range_hwm(self):
        with pytest.raises(ValueError):
            TrackerConfig(high_water_mark=0)
        with pytest.raises(ValueError):
            TrackerConfig(high_water_mark=33)

    def test_watermarks_bounded_by_the_bitmap_word(self):
        # Lookup-table values and bitmap words are one 32-bit width, which
        # no config field can widen: a 40-bit HWM would never be reached.
        assert WORD_BITS == bitmap.WORD_BITS == 32
        TrackerConfig(high_water_mark=WORD_BITS, low_water_mark=WORD_BITS)
        with pytest.raises(ValueError):
            TrackerConfig(low_water_mark=WORD_BITS + 1)
        with pytest.raises(TypeError):
            TrackerConfig(bitmap_word_bits=64, high_water_mark=40)

    def test_rejects_negative_lwm(self):
        with pytest.raises(ValueError):
            TrackerConfig(low_water_mark=-1)

    def test_rejects_empty_table(self):
        with pytest.raises(ValueError):
            TrackerConfig(lookup_table_entries=0)

    def test_with_granularity_returns_new_config(self):
        base = TrackerConfig()
        wide = base.with_granularity(64)
        assert wide.granularity_bytes == 64
        assert base.granularity_bytes == 8
        assert wide.high_water_mark == base.high_water_mark


class TestSetups:
    def test_setup_i_is_hybrid(self):
        cfg = setup_i()
        assert cfg.has_nvm
        assert cfg.dram_capacity_bytes == 3 * 1024**3
        assert cfg.nvm_capacity_bytes == 2 * 1024**3

    def test_setup_ii_has_32g_dram(self):
        cfg = setup_ii()
        assert cfg.dram_capacity_bytes == 32 * 1024**3

    def test_shared_cache_parameters(self):
        for cfg in (setup_i(), setup_ii()):
            assert cfg.l1d.latency_cycles == 3
            assert cfg.l2.latency_cycles == 12
            assert cfg.l3.latency_cycles == 20
            assert cfg.freq_hz == CPU_FREQ_HZ

    def test_constants(self):
        assert CACHE_LINE_BYTES == 64
        assert PAGE_BYTES == 4096
