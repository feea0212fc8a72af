"""Tests for repro.core.bitmap: the DRAM-resident dirty bitmap."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.bitmap import WORD_BITS, WORD_BYTES, DirtyBitmap, DirtyRun
from repro.memory.address import AddressRange

REGION = AddressRange(0x10000, 0x10000 + 64 * 1024)  # 64 KiB stack


def bitmap(granularity: int = 8) -> DirtyBitmap:
    return DirtyBitmap(REGION, granularity, base_address=0x6000_0000)


class TestGeometry:
    def test_granule_count(self):
        b = bitmap(8)
        assert b.num_granules == 64 * 1024 // 8
        assert b.num_words == b.num_granules // WORD_BITS

    def test_rejects_bad_granularity(self):
        with pytest.raises(ValueError):
            DirtyBitmap(REGION, 12)
        with pytest.raises(ValueError):
            DirtyBitmap(REGION, 0)

    def test_granule_of(self):
        b = bitmap(8)
        assert b.granule_of(REGION.start) == 0
        assert b.granule_of(REGION.start + 8) == 1
        assert b.granule_of(REGION.end - 1) == b.num_granules - 1

    def test_granule_of_outside_raises(self):
        with pytest.raises(ValueError):
            bitmap().granule_of(REGION.end)

    def test_word_address_layout(self):
        b = bitmap(8)
        assert b.word_address(0) == 0x6000_0000
        assert b.word_address(WORD_BITS) == 0x6000_0000 + WORD_BYTES
        assert b.bit_position(33) == 1


class TestMarking:
    def test_set_and_query(self):
        b = bitmap(8)
        b.set_bits_for_access(REGION.start + 16, 8)
        assert b.is_dirty(REGION.start + 16)
        assert not b.is_dirty(REGION.start + 8)
        assert b.dirty_granule_count() == 1

    def test_access_spanning_granules(self):
        b = bitmap(8)
        b.set_bits_for_access(REGION.start + 4, 8)  # crosses granule boundary
        assert b.dirty_granule_count() == 2

    def test_zero_size_noop(self):
        b = bitmap(8)
        b.set_bits_for_access(REGION.start, 0)
        assert b.dirty_granule_count() == 0

    def test_merge_word_reports_change(self):
        b = bitmap(8)
        assert b.merge_word(0, 0b101) is True
        assert b.merge_word(0, 0b001) is False  # already set: store elided
        assert b.merge_word(0, 0b111) is True
        assert b.load_word(0) == 0b111

    def test_store_word_overwrites(self):
        b = bitmap(8)
        b.store_word(3, 0xFFFF_FFFF)
        assert b.load_word(3) == 0xFFFF_FFFF


class TestRuns:
    def test_single_run(self):
        b = bitmap(8)
        b.set_bits_for_access(REGION.start + 64, 24)
        runs = list(b.iter_dirty_runs())
        assert runs == [DirtyRun(REGION.start + 64, REGION.start + 88)]

    def test_adjacent_bits_coalesce(self):
        b = bitmap(8)
        b.set_bits_for_access(REGION.start, 8)
        b.set_bits_for_access(REGION.start + 8, 8)
        runs = list(b.iter_dirty_runs())
        assert len(runs) == 1
        assert runs[0].size == 16

    def test_separated_bits_two_runs(self):
        b = bitmap(8)
        b.set_bits_for_access(REGION.start, 8)
        b.set_bits_for_access(REGION.start + 64, 8)
        assert len(list(b.iter_dirty_runs())) == 2

    def test_runs_respect_active_low_bound(self):
        b = bitmap(8)
        b.set_bits_for_access(REGION.start, 8)
        b.set_bits_for_access(REGION.end - 8, 8)
        runs = list(b.iter_dirty_runs(active_low=REGION.start + 1024))
        assert len(runs) == 1
        assert runs[0].start == REGION.end - 8

    def test_empty_bitmap_yields_nothing(self):
        assert list(bitmap().iter_dirty_runs()) == []

    def test_coarse_granularity_run_sizes(self):
        b = bitmap(64)
        b.set_bits_for_access(REGION.start + 1, 1)
        runs = list(b.iter_dirty_runs())
        assert runs[0].size == 64  # a whole granule is dirty

    @given(
        st.lists(
            st.tuples(st.integers(0, 64 * 1024 - 16), st.integers(1, 16)),
            max_size=60,
        )
    )
    def test_runs_cover_exactly_the_dirty_granules(self, accesses):
        b = bitmap(8)
        expected = set()
        for offset, size in accesses:
            b.set_bits_for_access(REGION.start + offset, size)
            first = offset // 8
            last = (offset + size - 1) // 8
            expected.update(range(first, last + 1))
        covered = set()
        for run in b.iter_dirty_runs():
            for g in range((run.start - REGION.start) // 8, (run.end - REGION.start) // 8):
                covered.add(g)
        assert covered == expected


class TestMaintenance:
    def test_words_touched_bounded_by_active_low(self):
        b = bitmap(8)
        assert b.words_touched() == b.num_words
        half = REGION.start + REGION.size // 2
        assert b.words_touched(half) == b.num_words // 2

    def test_clear_full(self):
        b = bitmap(8)
        b.set_bits_for_access(REGION.start, 64)
        assert b.clear() > 0
        assert b.dirty_granule_count() == 0

    def test_clear_partial_preserves_below(self):
        b = bitmap(8)
        b.set_bits_for_access(REGION.start, 8)
        b.set_bits_for_access(REGION.end - 8, 8)
        b.clear(active_low=REGION.start + REGION.size // 2)
        assert b.is_dirty(REGION.start)
        assert not b.is_dirty(REGION.end - 8)

    def test_snapshot_restore_roundtrip(self):
        b = bitmap(8)
        b.set_bits_for_access(REGION.start + 40, 16)
        snap = b.snapshot_words()
        b.clear()
        b.restore_words(snap)
        assert b.is_dirty(REGION.start + 40)

    def test_restore_shape_mismatch(self):
        b = bitmap(8)
        with pytest.raises(ValueError):
            b.restore_words(np.zeros(3, dtype=np.uint32))


def unpacked_run_bounds(b: DirtyBitmap, active_low):
    """Reference: run bounds from the whole bitmap, unpacked bit by bit."""
    start_granule = 0
    if active_low is not None and active_low > b.region.start:
        start_granule = (active_low - b.region.start) // b.granularity
    bits = np.unpackbits(b.snapshot_words().view(np.uint8), bitorder="little")
    bits = bits[: b.num_granules][start_granule:]
    if not bits.any():
        return [], []
    edges = np.flatnonzero(np.diff(np.concatenate(([0], bits, [0]))))
    bounds = b.region.start + (start_granule + edges) * b.granularity
    return bounds[0::2].tolist(), np.minimum(bounds[1::2], b.region.end).tolist()


def unpacked_clear(words: np.ndarray, first_word: int) -> int:
    """Reference: clear every word from *first_word* up."""
    written = int(np.count_nonzero(words[first_word:]))
    words[first_word:] = 0
    return written


class TestNonzeroSpan:
    """Run bounds and clears walk only the nonzero words, exactly as the
    whole-bitmap unpacking did."""

    # A region whose last word is partial: 167 granules over 6 words.
    ODD = AddressRange(0x20000, 0x20000 + 8 * (32 * 5 + 7))

    @given(
        granularity=st.sampled_from([8, 16, 64]),
        odd=st.booleans(),
        words=st.dictionaries(
            st.integers(0, 255),
            st.one_of(st.just(0xFFFF_FFFF), st.integers(1, 2**32 - 1)),
            max_size=8,
        ),
        low=st.one_of(st.none(), st.integers(-64, 64 * 1024 + 64)),
    )
    def test_matches_unpacked_reference(self, granularity, odd, words, low):
        region = self.ODD if odd else REGION
        b = DirtyBitmap(region, granularity)
        for index, value in words.items():
            b.store_word(index % b.num_words, value)
        active_low = None if low is None else region.start + low
        starts, ends = b.dirty_run_bounds(active_low)
        assert (starts.tolist(), ends.tolist()) == unpacked_run_bounds(b, active_low)

        expected = b.snapshot_words()
        first_word = 0
        if active_low is not None and active_low > region.start:
            first_word = ((active_low - region.start) // granularity) // WORD_BITS
        written = unpacked_clear(expected, first_word)
        assert b.clear(active_low) == written
        assert b.snapshot_words().tolist() == expected.tolist()
