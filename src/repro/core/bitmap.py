"""The DRAM-resident dirty bitmap maintained by the Prosper tracker.

One bit corresponds to one tracking granule of the stack (Section III-A:
"A bit in the dirty bitmap corresponds to a stack address range based on the
tracking granularity").  The bitmap is organized as 32-bit words — the same
width as the bitmap-value field of a lookup-table entry (Figure 7) — so a
single tracker store updates one word.

The OS consumes the bitmap at checkpoint time: it inspects only the words
covering the maximum active stack region, coalesces contiguous set bits into
runs, and clears the bits it consumed for the next interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.bitops import popcount_u32
from repro.memory.address import AddressRange

#: Bits per bitmap word (matches the lookup-table bitmap-value width).
WORD_BITS = 32
#: Bytes occupied by one bitmap word in the bitmap area.
WORD_BYTES = 4


@dataclass(frozen=True)
class DirtyRun:
    """A maximal run of contiguous dirty granules ``[start, end)`` in bytes."""

    start: int
    end: int

    def __deepcopy__(self, memo: dict) -> "DirtyRun":
        return self  # immutable

    @property
    def size(self) -> int:
        return self.end - self.start


class DirtyBitmap:
    """Dirty bitmap for one thread's stack region.

    Parameters
    ----------
    region:
        The stack address range the bitmap covers.
    granularity:
        Bytes per bit (a multiple of 8; Section III-B).
    base_address:
        Virtual address of the bitmap area in DRAM, used to compute the
        bitmap-word addresses the tracker stores to.
    """

    def __init__(self, region: AddressRange, granularity: int, base_address: int = 0x6000_0000) -> None:
        if granularity % 8 != 0 or granularity <= 0:
            raise ValueError("granularity must be a positive multiple of 8")
        self.region = region
        self.granularity = granularity
        self.base_address = base_address
        self.num_granules = -(-region.size // granularity)
        self.num_words = -(-self.num_granules // WORD_BITS)
        self._words = np.zeros(self.num_words, dtype=np.uint32)

    # ------------------------------------------------------------------ #
    # Address math (mirrors the tracker's hardware calculation, Figure 7)
    # ------------------------------------------------------------------ #

    def granule_of(self, address: int) -> int:
        """Granule index of a stack *address* (0 = lowest stack address)."""
        if not self.region.contains(address):
            raise ValueError(
                f"address {address:#x} outside tracked region {self.region}"
            )
        return (address - self.region.start) // self.granularity

    def word_address(self, granule: int) -> int:
        """Virtual address of the bitmap word holding *granule*'s bit."""
        return self.base_address + (granule // WORD_BITS) * WORD_BYTES

    def bit_position(self, granule: int) -> int:
        """Bit index of *granule* within its bitmap word."""
        return granule % WORD_BITS

    # ------------------------------------------------------------------ #
    # Word-level interface used by the tracker's bitmap loads/stores
    # ------------------------------------------------------------------ #

    def load_word(self, word_index: int) -> int:
        """Tracker-issued load of the old bitmap value."""
        return int(self._words[word_index])

    def store_word(self, word_index: int, value: int) -> None:
        """Tracker-issued store of a merged bitmap value."""
        self._words[word_index] = np.uint32(value)

    def merge_word(self, word_index: int, accumulated: int) -> bool:
        """Accumulate-and-Apply merge: OR *accumulated* into the word.

        Returns True when the stored value actually changed (a store to
        memory is required), False when the accumulated bits were already
        set (the store can be elided — "stored back if required").
        """
        old = int(self._words[word_index])
        new = old | (accumulated & 0xFFFF_FFFF)
        if new != old:
            self._words[word_index] = np.uint32(new)
            return True
        return False

    def merge_words(self, word_indices: np.ndarray, accumulated: np.ndarray) -> int:
        """Vectorized Accumulate-and-Apply merge of several distinct words.

        Semantically identical to calling :meth:`merge_word` once per
        (index, value) pair — *word_indices* must be distinct, which the
        lookup table guarantees (it holds at most one entry per word).
        Returns how many words actually changed (stores required); the rest
        can be elided.
        """
        old = self._words[word_indices]
        new = old | accumulated.astype(np.uint32)
        changed = new != old
        self._words[word_indices] = new
        return int(np.count_nonzero(changed))

    def store_words(self, word_indices: np.ndarray, values: np.ndarray) -> None:
        """Vectorized Load-and-Update write-out of several distinct words."""
        self._words[word_indices] = values.astype(np.uint32)

    # ------------------------------------------------------------------ #
    # OS-side inspection and maintenance
    # ------------------------------------------------------------------ #

    def set_bits_for_access(self, address: int, size: int) -> None:
        """Directly mark the granules covered by an access (software path).

        Used by the OS fault handler for inter-thread stack writes
        (Section III-C) and by tests.
        """
        if size <= 0:
            return
        first = self.granule_of(address)
        last = self.granule_of(min(address + size - 1, self.region.end - 1))
        first_word, last_word = first // WORD_BITS, last // WORD_BITS
        lo_bit = first % WORD_BITS
        hi_bit = last % WORD_BITS
        if first_word == last_word:
            mask = ((1 << (last - first + 1)) - 1) << lo_bit
            self._words[first_word] |= np.uint32(mask)
            return
        # Partial first word, full middle words (one slice write), partial
        # last word — O(words) numpy stores instead of O(granules) Python.
        self._words[first_word] |= np.uint32((0xFFFF_FFFF << lo_bit) & 0xFFFF_FFFF)
        if last_word - first_word > 1:
            self._words[first_word + 1 : last_word] |= np.uint32(0xFFFF_FFFF)
        self._words[last_word] |= np.uint32((1 << (hi_bit + 1)) - 1)

    def is_dirty(self, address: int) -> bool:
        """True when the granule containing *address* is marked dirty."""
        granule = self.granule_of(address)
        return bool(self._words[granule // WORD_BITS] >> (granule % WORD_BITS) & 1)

    def dirty_granule_count(self) -> int:
        """Total set bits (population count across all words).

        Two LUT gathers over the word array — no per-call ``unpackbits``
        allocation of ``32 * num_words`` bytes.
        """
        return int(popcount_u32(self._words).sum())

    def words_touched(self, active_low: int | None = None) -> int:
        """Number of bitmap words covering ``[active_low, region.end)``.

        This is the amount of metadata the OS must walk at checkpoint time;
        passing the tracker-reported lowest dirty address limits the walk to
        the active stack region (Section III-A).
        """
        if active_low is None or active_low <= self.region.start:
            return self.num_words
        first_granule = (active_low - self.region.start) // self.granularity
        return self.num_words - first_granule // WORD_BITS

    def dirty_run_bounds(
        self, active_low: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Maximal contiguous dirty byte-ranges as ``(starts, ends)`` arrays.

        The columnar form of :meth:`iter_dirty_runs`: the checkpoint engine
        clips, filters, and sums these bounds with numpy instead of walking
        ``DirtyRun`` objects one at a time.  Only the span from the first
        to the last nonzero word is unpacked.
        """
        start_granule = 0
        if active_low is not None and active_low > self.region.start:
            start_granule = (active_low - self.region.start) // self.granularity

        first_word = start_granule // WORD_BITS
        nonzero = first_word + np.flatnonzero(self._words[first_word:])
        if not len(nonzero):
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        lo_word, hi_word = int(nonzero[0]), int(nonzero[-1]) + 1
        span_granule = lo_word * WORD_BITS
        first_granule = max(start_granule, span_granule)
        bits = np.unpackbits(
            self._words[lo_word:hi_word].view(np.uint8), bitorder="little"
        )[first_granule - span_granule : self.num_granules - span_granule]
        if not bits.any():
            empty = np.empty(0, dtype=np.int64)
            return empty, empty

        # Find run boundaries via the discrete difference of the bit vector.
        padded = np.concatenate(([0], bits, [0]))
        edges = np.flatnonzero(np.diff(padded))
        base = self.region.start + first_granule * self.granularity
        bounds = base + edges.astype(np.int64) * self.granularity
        return bounds[0::2], np.minimum(bounds[1::2], self.region.end)

    def iter_dirty_runs(self, active_low: int | None = None) -> Iterator[DirtyRun]:
        """Yield maximal contiguous dirty byte-ranges, low address first.

        Contiguous set bits are coalesced into one run (Section III-A: "the
        OS looks for coalescing opportunities"), so one run becomes one copy
        operation at checkpoint time.
        """
        starts, ends = self.dirty_run_bounds(active_low)
        for s, e in zip(starts.tolist(), ends.tolist()):
            yield DirtyRun(s, e)

    def clear(self, active_low: int | None = None) -> int:
        """Clear dirty bits; returns the number of words written.

        With *active_low* given, only the words covering the active region
        are cleared — the optimization enabled by the tracker sharing the
        maximum active stack extent with the OS.
        """
        first_word = 0
        if active_low is not None and active_low > self.region.start:
            first_word = (
                (active_low - self.region.start) // self.granularity
            ) // WORD_BITS
        nonzero = first_word + np.flatnonzero(self._words[first_word:])
        if len(nonzero):
            self._words[int(nonzero[0]) : int(nonzero[-1]) + 1] = 0
        return len(nonzero)

    def snapshot_words(self) -> np.ndarray:
        """Copy of the raw words (context-switch save path)."""
        return self._words.copy()

    def restore_words(self, words: np.ndarray) -> None:
        """Restore raw words (context-switch restore path)."""
        if words.shape != self._words.shape:
            raise ValueError("bitmap snapshot shape mismatch")
        self._words[:] = words
