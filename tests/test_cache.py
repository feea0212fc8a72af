"""Tests for repro.memory.cache: set-associative write-back LRU cache."""

import copy
import dataclasses
from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig
from repro.memory.cache import Cache, CacheStats


def tiny_cache(ways: int = 2, sets: int = 4) -> Cache:
    """A small cache: sets*ways lines of 64B."""
    return Cache(CacheConfig(sets * ways * 64, ways, 3, 4))


class TestBasicBehaviour:
    def test_first_access_misses_then_hits(self):
        cache = tiny_cache()
        hit, _ = cache.access(0, is_write=False)
        assert not hit
        hit, _ = cache.access(0, is_write=False)
        assert hit

    def test_capacity_eviction_lru(self):
        cache = tiny_cache(ways=2, sets=1)
        cache.access(0, False)
        cache.access(1, False)
        cache.access(0, False)  # 0 is now MRU
        hit, victim = cache.access(2, False)  # evicts 1 (LRU)
        assert not hit
        assert victim is None  # clean victim: no writeback
        assert cache.lookup(0)
        assert not cache.lookup(1)

    def test_dirty_victim_returns_writeback(self):
        cache = tiny_cache(ways=1, sets=1)
        cache.access(0, is_write=True)
        _, victim = cache.access(1, is_write=False)
        assert victim == 0
        assert cache.stats.writebacks == 1

    def test_write_marks_dirty_on_hit(self):
        cache = tiny_cache(ways=1, sets=1)
        cache.access(0, is_write=False)
        cache.access(0, is_write=True)
        _, victim = cache.access(1, False)
        assert victim == 0

    def test_lines_map_to_distinct_sets(self):
        cache = tiny_cache(ways=1, sets=4)
        for line in range(4):
            cache.access(line, False)
        assert cache.resident_lines == 4
        assert cache.stats.evictions == 0


class TestMaintenanceOps:
    def test_clean_clwb_semantics(self):
        cache = tiny_cache()
        cache.access(5, is_write=True)
        assert cache.clean(5) is True  # dirty -> writeback needed
        assert cache.clean(5) is False  # now clean
        assert cache.lookup(5)  # clwb keeps the line resident

    def test_clean_absent_line(self):
        cache = tiny_cache()
        assert cache.clean(99) is False

    def test_invalidate_reports_dirty(self):
        cache = tiny_cache()
        cache.access(3, is_write=True)
        assert cache.invalidate(3) is True
        assert not cache.lookup(3)
        assert cache.invalidate(3) is False

    def test_flush_all_counts_dirty(self):
        cache = tiny_cache()
        cache.access(0, True)
        cache.access(1, False)
        cache.access(2, True)
        assert cache.flush_all() == 2
        assert cache.resident_lines == 0


class TestStats:
    def test_hit_rate(self):
        cache = tiny_cache()
        cache.access(0, False)
        cache.access(0, False)
        cache.access(0, False)
        assert cache.stats.hit_rate == 2 / 3

    def test_hit_rate_empty(self):
        assert tiny_cache().stats.hit_rate == 0.0


class TestProperties:
    @given(st.lists(st.tuples(st.integers(0, 63), st.booleans()), max_size=300))
    def test_occupancy_never_exceeds_capacity(self, accesses):
        cache = tiny_cache(ways=2, sets=4)
        for line, is_write in accesses:
            cache.access(line, is_write)
        assert cache.resident_lines <= 8
        for s in range(4):
            assert cache.set_occupancy(s) <= 2

    @given(st.lists(st.integers(0, 31), min_size=1, max_size=200))
    def test_most_recent_line_always_resident(self, lines):
        cache = tiny_cache(ways=2, sets=4)
        for line in lines:
            cache.access(line, False)
        assert cache.lookup(lines[-1])

    @given(st.lists(st.tuples(st.integers(0, 63), st.booleans()), max_size=300))
    def test_hits_plus_misses_equals_accesses(self, accesses):
        cache = tiny_cache()
        for line, is_write in accesses:
            cache.access(line, is_write)
        assert cache.stats.accesses == len(accesses)


class ReferenceLru:
    """Plain ordered-LRU model: one OrderedDict (LRU first) per set.

    Holds ``line -> dirty`` and evicts the first entry of a full set, with
    none of the columnar cache's slots, ticks or free stacks.
    """

    def __init__(self, ways: int, sets: int) -> None:
        self.ways = ways
        self.sets = [OrderedDict() for _ in range(sets)]
        self.stats = CacheStats()

    def _set(self, line: int) -> OrderedDict:
        return self.sets[line % len(self.sets)]

    def access(self, line: int, is_write: bool) -> tuple[bool, int | None]:
        ways = self._set(line)
        if line in ways:
            self.stats.hits += 1
            ways.move_to_end(line)
            ways[line] = ways[line] or is_write
            return True, None
        self.stats.misses += 1
        victim = None
        if len(ways) == self.ways:
            old, dirty = ways.popitem(last=False)
            self.stats.evictions += 1
            if dirty:
                self.stats.writebacks += 1
                victim = old
        ways[line] = is_write
        return False, victim

    def invalidate(self, line: int) -> bool:
        return bool(self._set(line).pop(line, False))

    def clean(self, line: int) -> bool:
        ways = self._set(line)
        if ways.get(line):
            ways[line] = False
            self.stats.writebacks += 1
            return True
        return False

    def flush_all(self) -> int:
        dirty = sum(d for ways in self.sets for d in ways.values())
        self.stats.writebacks += dirty
        for ways in self.sets:
            ways.clear()
        return dirty


#: Few lines over few sets, so sets overflow and lines come back often.
_LINES = st.integers(0, 15)
_ACCESS = st.tuples(st.just("access"), _LINES, st.booleans())
_CACHE_OPS = st.lists(
    st.one_of(
        _ACCESS,
        _ACCESS,
        _ACCESS,
        st.tuples(st.just("invalidate"), _LINES),
        st.tuples(st.just("clean"), _LINES),
        st.tuples(st.just("flush_all")),
    ),
    min_size=8,
    max_size=300,
)


class TestReferenceLru:
    """The columnar cache against the ordered-LRU reference model."""

    @settings(max_examples=300)
    @given(
        ways=st.sampled_from([1, 2, 4]),
        sets=st.sampled_from([1, 3, 4]),
        ops=_CACHE_OPS,
    )
    def test_matches_reference(self, ways, sets, ops):
        cache = tiny_cache(ways=ways, sets=sets)
        model = ReferenceLru(ways, sets)
        for op in ops:
            name, *args = op
            got = getattr(cache, name)(*args)
            want = getattr(model, name)(*args)
            assert got == want, op
            assert cache.stats == model.stats, op
        assert cache.resident_lines == sum(len(w) for w in model.sets)
        for s, ways_in_set in enumerate(model.sets):
            for line in ways_in_set:
                assert cache.lookup(line)
            assert cache.set_occupancy(s) == len(ways_in_set)

    @given(st.lists(st.integers(0, 7), max_size=60))
    def test_invalidated_slots_refill_in_lru_order(self, invalidated):
        # Fill one 4-way set, free some ways out of order, then keep
        # missing: victims must follow the reference LRU order throughout.
        cache = tiny_cache(ways=4, sets=1)
        model = ReferenceLru(4, 1)
        for line in range(4):
            assert cache.access(line, True) == model.access(line, True)
        for step, line in enumerate(invalidated):
            assert cache.invalidate(line) == model.invalidate(line)
            new = 100 + step
            assert cache.access(new, step % 2 == 0) == model.access(
                new, step % 2 == 0
            )
        assert cache.stats == model.stats


class TestLazyFreeLists:
    """Every way of a cold cache is free; a miss fills its set's first
    free way (the lowest way index)."""

    def test_untouched_set_has_zero_occupancy(self):
        cache = tiny_cache(ways=4, sets=4)
        cache.access(1, False)
        assert [cache.set_occupancy(s) for s in range(4)] == [0, 1, 0, 0]
        assert cache.tag_array.tolist() == [[-1] * 4, [1, -1, -1, -1]] + [[-1] * 4] * 2

    def test_way_zero_fills_first(self):
        cache = tiny_cache(ways=4, sets=2)
        for line in (1, 3, 5):
            cache.access(line, False)
        assert cache.tag_array[1].tolist() == [1, 3, 5, -1]
        assert cache.tag_array[0].tolist() == [-1] * 4

    def test_invalidate_then_miss_reuses_freed_slot(self):
        cache = tiny_cache(ways=4, sets=1)
        for line in range(4):
            cache.access(line, False)
        assert cache.set_occupancy(0) == 4  # full, not untouched
        cache.invalidate(2)
        assert cache.set_occupancy(0) == 3
        hit, victim = cache.access(9, False)
        assert (hit, victim) == (False, None)
        assert cache.stats.evictions == 0
        assert cache.tag_array[0].tolist() == [0, 1, 9, 3]

    def test_flush_all_resets_the_cache(self):
        cache = tiny_cache(ways=2, sets=4)
        for line in range(8):
            cache.access(line, line % 2 == 0)
        assert cache.flush_all() == 4
        assert cache.resident_lines == 0
        assert cache.tag_array.tolist() == [[-1, -1]] * 4
        assert not cache.dirty_array.any()
        assert [cache.set_occupancy(s) for s in range(4)] == [0] * 4
        cache.access(6, False)
        assert cache.tag_array[2].tolist() == [6, -1]

    def test_deepcopy_is_independent(self):
        cache = tiny_cache(ways=2, sets=2)
        for line, write in ((0, True), (1, False), (2, False)):
            cache.access(line, write)
        before = (
            cache.tag_array.tolist(), cache.age_array.tolist(),
            cache.dirty_array.tolist(), [cache.lookup(x) for x in range(8)],
            [cache.set_occupancy(s) for s in range(2)],
            CacheStats(**dataclasses.asdict(cache.stats)), cache._clock[0],
        )
        clone = copy.deepcopy(cache)
        assert clone.config is cache.config
        clone.access(3, True)  # untouched set 1
        clone.access(4, True)  # evicts dirty line 0 from set 0
        clone.access(1, True)
        clone.invalidate(2)
        clone.flush_all()
        after = (
            cache.tag_array.tolist(), cache.age_array.tolist(),
            cache.dirty_array.tolist(), [cache.lookup(x) for x in range(8)],
            [cache.set_occupancy(s) for s in range(2)],
            cache.stats, cache._clock[0],
        )
        assert after == before
        hit, victim = cache.access(6, False)  # the original still evicts 0
        assert (hit, victim) == (False, 0)

    def test_deepcopy_continues_like_the_original(self):
        cache = tiny_cache(ways=2, sets=4)
        for line in (0, 4, 1, 8, 5):
            cache.access(line, line % 3 == 0)
        clone = copy.deepcopy(cache)
        for line in (12, 0, 9, 3, 16, 4):
            assert clone.access(line, True) == cache.access(line, True)
        assert clone.stats == cache.stats
        assert clone.tag_array.tolist() == cache.tag_array.tolist()
