"""Byte-addressable memory images: actual *contents*, not just timing.

The timing model elsewhere treats memory as events; recovery correctness,
however, is about bytes.  A :class:`ByteImage` stores 8-byte words sparsely
so the simulation can keep a real DRAM image of each stack, copy dirty runs
into a persistent NVM image at checkpoints, throw the DRAM image away at a
crash, and verify after recovery that the restored contents equal what the
last committed checkpoint captured — the data-integrity half of the paper's
"kill gem5 and restart" validation.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.memory.address import AddressRange

WORD_BYTES = 8


class ByteImage:
    """Sparse word-granularity memory contents."""

    def __init__(self) -> None:
        self._words: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._words)

    def write(self, address: int, value: int) -> None:
        """Store *value* at the word containing *address*."""
        self._words[address // WORD_BYTES] = value

    def read(self, address: int, default: int = 0) -> int:
        """Load the word containing *address* (unwritten words read 0)."""
        return self._words.get(address // WORD_BYTES, default)

    def write_array(self, addresses: np.ndarray, values: np.ndarray) -> None:
        """Store ``values[i]`` at the word containing ``addresses[i]``, in
        order (a later store to the same word wins)."""
        self._words.update(
            zip((addresses // WORD_BYTES).tolist(), values.tolist())
        )

    def _stored_in(self, rng: AddressRange) -> list[int]:
        """Stored word indices within *rng*, ascending.

        Walks whichever is smaller: the range's words or the stored words.
        """
        first = rng.start // WORD_BYTES
        last = (rng.end - 1) // WORD_BYTES if rng.size else first - 1
        words = self._words
        if last - first + 1 <= len(words):
            return [word for word in range(first, last + 1) if word in words]
        return sorted(word for word in words if first <= word <= last)

    def copy_range_from(self, source: "ByteImage", rng: AddressRange) -> int:
        """Copy every word of *rng* present in *source*; returns words copied.

        Words absent from the source within the range are removed here too,
        so the destination range becomes an exact replica.
        """
        src = source._words
        copied = [(word, src[word]) for word in source._stored_in(rng)]
        for word in self._stored_in(rng):
            del self._words[word]
        self._words.update(copied)
        return len(copied)

    def words_in_range(self, rng: AddressRange) -> Iterator[tuple[int, int]]:
        """(word-aligned address, value) pairs present within *rng*, ordered.

        This is the content the checkpoint path stages for one dirty run —
        the raw material its CRC32 is computed over.
        """
        words = self._words
        for word in self._stored_in(rng):
            yield word * WORD_BYTES, words[word]

    def replace_range(self, rng: AddressRange, words) -> int:
        """Make *rng* hold exactly *words* ((address, value) pairs).

        Words of the range not listed are removed, mirroring
        :meth:`copy_range_from`'s exact-replica semantics; used when a
        staged checkpoint run is applied to the persistent image.  Returns
        the number of words written.
        """
        for word in self._stored_in(rng):
            del self._words[word]
        written = 0
        for address, value in words:
            self._words[address // WORD_BYTES] = value
            written += 1
        return written

    def iter_words(self) -> Iterator[tuple[int, int]]:
        """(word-aligned address, value) pairs, unordered."""
        for word, value in self._words.items():
            yield word * WORD_BYTES, value

    def clear(self) -> None:
        """Drop all contents (a power failure for a DRAM image)."""
        self._words.clear()

    def equals_in_range(self, other: "ByteImage", rng: AddressRange) -> bool:
        """True when both images hold identical words across *rng* (an
        absent word equals 0)."""
        mine, theirs = self._words, other._words
        for word in self._stored_in(rng) + other._stored_in(rng):
            if mine.get(word, 0) != theirs.get(word, 0):
                return False
        return True

    def snapshot(self) -> "ByteImage":
        """Independent copy of the current contents."""
        clone = ByteImage()
        clone._words = dict(self._words)
        return clone
