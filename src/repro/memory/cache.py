"""Set-associative write-back cache with LRU replacement.

The hierarchy (L1D/L2/L3 from Table II) is modeled functionally: a cache
holds line tags, tracks dirtiness, and reports hit/miss so the hierarchy can
charge the right latency.  No data payload is stored — the simulator's
"memory contents" live with the workload, not the cache model.

Storage is columnar: one flat tag column (``array('q')``, -1 = empty way),
one dirty column (``bytearray``) and one last-use-tick column
(``array('q')``), each ``num_sets * associativity`` long (slot
``set * associativity + way``), plus a one-element tick clock.  The
native walk of :mod:`repro.memory.native` and this class mutate the same
buffers, so every column (and the stats' counter buffer) is mutated in
place and never rebound: the native side holds raw pointers to them.

A probe scans the line's set.  Exact LRU comes from a global monotonic
tick: every touch stamps the slot, and a full set evicts the slot with the
smallest stamp.  Ticks strictly increase, so the minimum is unique and the
victim matches what an ordered-per-set model would evict.  A miss in a set
with an empty way fills the first one (lowest way index); since victims
are chosen by tick alone, no output depends on which free way is used.
``tag_array`` and ``age_array`` return numpy snapshots and
``dirty_array`` a view, for analysis code and tests.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from repro.config import CacheConfig
from repro.memory.counters import SharedCounter, zero

#: Slots of :attr:`CacheStats.counts` (the native walk uses the same order).
HITS, MISSES, WRITEBACKS, EVICTIONS = range(4)


@dataclass(init=False)
class CacheStats:
    """Hit/miss counters for one cache level, held in ``counts``."""

    hits: int = SharedCounter(HITS)
    misses: int = SharedCounter(MISSES)
    writebacks: int = SharedCounter(WRITEBACKS)
    evictions: int = SharedCounter(EVICTIONS)

    def __init__(
        self, hits: int = 0, misses: int = 0, writebacks: int = 0, evictions: int = 0
    ) -> None:
        self.counts = array("q", (hits, misses, writebacks, evictions))

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        zero(self.counts)


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
        "_clock",
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
        slots = num_sets * assoc
        self._tags = array("q", [-1]) * slots
        self._dirty = bytearray(slots)
        self._age = array("q", bytes(8 * slots))
        #: ``[tick]``: the last stamp handed out.
        self._clock = array("q", [0])

    def __deepcopy__(self, memo: dict) -> "Cache":
        """Independent copy: each buffer is copied in one step, the
        immutable config and scalars shared."""
        clone = Cache.__new__(Cache)
        for name in Cache.__slots__:
            setattr(clone, name, getattr(self, name))
        clone.stats = CacheStats(*self.stats.counts)
        clone._tags = self._tags[:]
        clone._dirty = self._dirty[:]
        clone._age = self._age[:]
        clone._clock = self._clock[:]
        return clone

    def _slot(self, line: int) -> int:
        """Slot holding *line*, or -1: a scan of the line's set."""
        assoc = self._assoc
        base = (
            line & self._set_mask if self._power_of_two_sets else line % self._num_sets
        ) * assoc
        ways = self._tags[base : base + assoc]
        return base + ways.index(line) if line in ways else -1

    # ------------------------------------------------------------------ #
    # Demand interface
    # ------------------------------------------------------------------ #

    def lookup(self, line: int) -> bool:
        """Probe for *line* without changing replacement state."""
        return self._slot(line) >= 0

    def access(self, line: int, is_write: bool) -> tuple[bool, int | None]:
        """Access cache *line*; returns ``(hit, writeback_victim_line)``.

        On a miss the line is allocated (write-allocate) and the LRU victim,
        if dirty, is returned so the caller can charge a write-back.
        """
        # The set's first slot, as in _slot.
        assoc = self._assoc
        base = (
            line & self._set_mask if self._power_of_two_sets else line % self._num_sets
        ) * assoc
        end = base + assoc
        tags = self._tags
        counts = self.stats.counts
        clock = self._clock
        tick = clock[0] + 1
        clock[0] = tick
        ways = tags[base:end]
        if line in ways:
            slot = base + ways.index(line)
            counts[HITS] += 1
            self._age[slot] = tick
            if is_write:
                self._dirty[slot] = 1
            return True, None

        counts[MISSES] += 1
        victim_writeback: int | None = None
        if -1 in ways:
            # Fill the first empty way.
            slot = base + ways.index(-1)
        else:
            # Evict the least-recently used way of the set: every way of a
            # full set was stamped with a distinct tick, so the minimum is
            # unique.
            ages = self._age[base:end]
            slot = base + ages.index(min(ages))
            counts[EVICTIONS] += 1
            if self._dirty[slot]:
                counts[WRITEBACKS] += 1
                victim_writeback = tags[slot]
        tags[slot] = line
        self._dirty[slot] = 1 if is_write else 0
        self._age[slot] = tick
        return False, victim_writeback

    # ------------------------------------------------------------------ #
    # Persistence interface
    # ------------------------------------------------------------------ #

    def invalidate(self, line: int) -> bool:
        """Drop *line*; returns True if the line was present and dirty."""
        slot = self._slot(line)
        if slot < 0:
            return False
        dirty = bool(self._dirty[slot])
        self._dirty[slot] = 0
        self._tags[slot] = -1
        return dirty

    def clean(self, line: int) -> bool:
        """Write back *line* if present and dirty (clwb); keep it resident.

        Returns True when a write-back to the next level is required.
        """
        slot = self._slot(line)
        if slot >= 0 and self._dirty[slot]:
            self._dirty[slot] = 0
            self.stats.counts[WRITEBACKS] += 1
            return True
        return False

    def flush_all(self) -> int:
        """Invalidate everything; returns the number of dirty lines dropped.

        Only resident lines are ever dirty (a fill or an invalidation
        rewrites the slot's bit), so the dirty column's count is the answer.
        """
        dirty = self._dirty.count(1)
        self.stats.counts[WRITEBACKS] += dirty
        slots = len(self._tags)
        self._tags[:] = array("q", [-1]) * slots
        self._dirty[:] = bytes(slots)
        return dirty

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def resident_lines(self) -> int:
        return len(self._tags) - self._tags.count(-1)

    def set_occupancy(self, set_index: int) -> int:
        """Number of resident ways in one set (debug/test accessor)."""
        base = set_index * self._assoc
        return self._assoc - self._tags[base : base + self._assoc].count(-1)

    @property
    def tag_array(self) -> np.ndarray:
        """``(num_sets, assoc)`` int64 snapshot of line tags (-1 = empty)."""
        return np.array(self._tags, dtype=np.int64).reshape(
            self._num_sets, self._assoc
        )

    @property
    def dirty_array(self) -> np.ndarray:
        """``(num_sets, assoc)`` uint8 view of the dirty bits."""
        return np.frombuffer(self._dirty, dtype=np.uint8).reshape(
            self._num_sets, self._assoc
        )

    @property
    def age_array(self) -> np.ndarray:
        """``(num_sets, assoc)`` uint64 snapshot of last-use ticks."""
        return np.array(self._age, dtype=np.uint64).reshape(
            self._num_sets, self._assoc
        )
