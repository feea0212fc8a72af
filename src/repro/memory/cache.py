"""Set-associative write-back cache with LRU replacement.

The hierarchy (L1D/L2/L3 from Table II) is modeled functionally: a cache
holds line tags, tracks dirtiness, and reports hit/miss so the hierarchy can
charge the right latency.  No data payload is stored — the simulator's
"memory contents" live with the workload, not the cache model.

Storage is columnar rather than object-based: one flat tag array, one dirty
array, and one last-use-tick array, each ``num_sets * associativity`` long
(slot ``set * associativity + way``), plus a dict mapping resident line →
slot for O(1) probes.  Exact LRU comes from a global monotonic tick: every
touch stamps the slot, and a full set evicts the slot with the smallest
stamp.  Ticks strictly increase, so the minimum is unique and the victim
matches what an ordered-per-set model would evict.  A set's stack of free
ways is built on its first miss, so creating a cold cache allocates only
its flat columns and a copy carries free lists only for the sets in use;
a set with no free list was never touched and has every way free.  Tags
and ages are plain Python lists (unboxed indexing on the hot path);
``tag_array`` / ``dirty_array`` / ``age_array`` expose numpy snapshots for
analysis code and the batched engine's precompute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import CacheConfig


@dataclass
class CacheStats:
    """Hit/miss counters for one cache level."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.evictions = 0


class Cache:
    """One level of a write-back, write-allocate cache."""

    __slots__ = (
        "config",
        "name",
        "stats",
        "_assoc",
        "_num_sets",
        "_set_mask",
        "_power_of_two_sets",
        "_tags",
        "_dirty",
        "_age",
        "_index",
        "_free",
        "_tick",
    )

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.stats = CacheStats()
        assoc = config.associativity
        num_sets = config.num_sets
        self._assoc = assoc
        self._num_sets = num_sets
        self._set_mask = num_sets - 1
        self._power_of_two_sets = num_sets & (num_sets - 1) == 0
        # Flat columnar state, slot = set * assoc + way.
        self._tags: list[int] = [-1] * (num_sets * assoc)
        self._dirty = bytearray(num_sets * assoc)
        self._age: list[int] = [0] * (num_sets * assoc)
        #: Resident line -> flat slot.
        self._index: dict[int, int] = {}
        #: Set index -> stack of unallocated slots (popped MSB-first so way
        #: 0 fills first, like an empty ordered set would), built on the
        #: set's first miss.  An absent set has every way free; an empty
        #: stack means the set is full.
        self._free: dict[int, list[int]] = {}
        self._tick = 0

    def __deepcopy__(self, memo: dict) -> "Cache":
        """Independent copy: the columns are sliced, the immutable config
        and scalars shared."""
        clone = Cache.__new__(Cache)
        for name in Cache.__slots__:
            setattr(clone, name, getattr(self, name))
        clone.stats = CacheStats(**vars(self.stats))
        clone._tags = self._tags[:]
        clone._dirty = self._dirty[:]
        clone._age = self._age[:]
        clone._index = self._index.copy()
        clone._free = {s: free[:] for s, free in self._free.items()}
        return clone

    # ------------------------------------------------------------------ #
    # Demand interface
    # ------------------------------------------------------------------ #

    def lookup(self, line: int) -> bool:
        """Probe for *line* without changing replacement state."""
        return line in self._index

    def access(self, line: int, is_write: bool) -> tuple[bool, int | None]:
        """Access cache *line*; returns ``(hit, writeback_victim_line)``.

        On a miss the line is allocated (write-allocate) and the LRU victim,
        if dirty, is returned so the caller can charge a write-back.
        """
        index = self._index
        slot = index.get(line)
        if slot is not None:
            self.stats.hits += 1
            tick = self._tick + 1
            self._tick = tick
            self._age[slot] = tick
            if is_write:
                self._dirty[slot] = 1
            return True, None

        self.stats.misses += 1
        victim_writeback: int | None = None
        set_index = (
            line & self._set_mask
            if self._power_of_two_sets
            else line % self._num_sets
        )
        free = self._free.get(set_index)
        if free is None:
            # First miss in this set: every way is free.
            base = set_index * self._assoc
            free = self._free[set_index] = list(
                range(base + self._assoc - 1, base - 1, -1)
            )
        age = self._age
        tags = self._tags
        if free:
            slot = free.pop()
        else:
            # Evict the least-recently used way of the set: a C-level
            # minimum over the set's age slice.  Every way of a full set
            # was stamped with a distinct tick, so the minimum is unique.
            base = set_index * self._assoc
            end = base + self._assoc
            slot = age.index(min(age[base:end]), base, end)
            self.stats.evictions += 1
            victim = tags[slot]
            del index[victim]
            if self._dirty[slot]:
                self.stats.writebacks += 1
                victim_writeback = victim
        tags[slot] = line
        self._dirty[slot] = 1 if is_write else 0
        tick = self._tick + 1
        self._tick = tick
        age[slot] = tick
        index[line] = slot
        return False, victim_writeback

    # ------------------------------------------------------------------ #
    # Persistence interface
    # ------------------------------------------------------------------ #

    def invalidate(self, line: int) -> bool:
        """Drop *line*; returns True if the line was present and dirty."""
        slot = self._index.pop(line, None)
        if slot is None:
            return False
        dirty = bool(self._dirty[slot])
        self._dirty[slot] = 0
        self._tags[slot] = -1
        self._free[slot // self._assoc].append(slot)
        return dirty

    def clean(self, line: int) -> bool:
        """Write back *line* if present and dirty (clwb); keep it resident.

        Returns True when a write-back to the next level is required.
        """
        slot = self._index.get(line)
        if slot is not None and self._dirty[slot]:
            self._dirty[slot] = 0
            self.stats.writebacks += 1
            return True
        return False

    def flush_all(self) -> int:
        """Invalidate everything; returns the number of dirty lines dropped."""
        dirty = 0
        for slot in self._index.values():
            if self._dirty[slot]:
                dirty += 1
        self.stats.writebacks += dirty
        assoc = self._assoc
        self._index.clear()
        self._tags = [-1] * (self._num_sets * assoc)
        self._dirty = bytearray(self._num_sets * assoc)
        self._free = {}
        return dirty

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def resident_lines(self) -> int:
        return len(self._index)

    def set_occupancy(self, set_index: int) -> int:
        """Number of resident ways in one set (debug/test accessor)."""
        free = self._free.get(set_index)
        return 0 if free is None else self._assoc - len(free)

    @property
    def tag_array(self) -> np.ndarray:
        """``(num_sets, assoc)`` int64 snapshot of line tags (-1 = empty)."""
        return np.asarray(self._tags, dtype=np.int64).reshape(
            self._num_sets, self._assoc
        )

    @property
    def dirty_array(self) -> np.ndarray:
        """``(num_sets, assoc)`` uint8 snapshot of dirty bits."""
        return np.frombuffer(self._dirty, dtype=np.uint8).reshape(
            self._num_sets, self._assoc
        )

    @property
    def age_array(self) -> np.ndarray:
        """``(num_sets, assoc)`` uint64 snapshot of last-use ticks."""
        return np.asarray(self._age, dtype=np.uint64).reshape(
            self._num_sets, self._assoc
        )
