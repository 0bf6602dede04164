"""Set-associative cache: LRU, eviction, classes, occupancy accounting,
and the deferred install behind ``restore_state``."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sanitizer
from repro.mem.cache import DATA, MERKLE, SetAssociativeCache


def direct_mapped(sets: int = 4) -> SetAssociativeCache:
    return SetAssociativeCache(sets * 64, assoc=1)


def two_way(sets: int = 4) -> SetAssociativeCache:
    return SetAssociativeCache(sets * 2 * 64, assoc=2)


class TestGeometry:
    def test_paper_l2_dimensions(self):
        l2 = SetAssociativeCache(1024 * 1024, 8, 64)
        assert l2.num_sets == 2048
        assert l2.num_lines == 16384

    def test_counter_cache_dimensions(self):
        cc = SetAssociativeCache(32 * 1024, 16, 64)
        assert cc.num_sets == 32
        assert cc.num_lines == 512

    def test_rejects_non_divisible(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(1000, 3, 64)


class TestHitMiss:
    def test_cold_miss_then_hit(self):
        cache = two_way()
        assert not cache.lookup(0)
        cache.insert(0)
        assert cache.lookup(0)

    def test_same_block_different_offsets(self):
        cache = two_way()
        cache.insert(0)
        assert cache.lookup(63)
        assert not cache.lookup(64)

    def test_lookup_does_not_allocate(self):
        cache = two_way()
        cache.lookup(0)
        assert not cache.contains(0)

    def test_stats(self):
        cache = two_way()
        cache.lookup(0)
        cache.insert(0)
        cache.lookup(0)
        cache.lookup(0)
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1
        assert cache.stats.miss_rate == pytest.approx(1 / 3)


class TestLru:
    def test_evicts_least_recent(self):
        cache = two_way(sets=1)
        cache.insert(0)  # set 0
        cache.insert(64)  # set 0
        cache.lookup(0)  # 0 becomes MRU
        victim = cache.insert(128)
        assert victim.block == 1  # block index of address 64
        assert cache.contains(0)
        assert not cache.contains(64)

    def test_insert_refreshes_recency(self):
        cache = two_way(sets=1)
        cache.insert(0)
        cache.insert(64)
        cache.insert(0)  # refresh
        victim = cache.insert(128)
        assert victim.block == 1

    def test_write_hits_set_dirty(self):
        cache = two_way(sets=1)
        cache.insert(0)
        cache.lookup(0, write=True)
        cache.insert(64)
        victim = cache.insert(128)  # evicts 0
        assert victim.block == 0 and victim.dirty

    def test_clean_eviction_not_counted_as_writeback(self):
        cache = direct_mapped(sets=1)
        cache.insert(0, dirty=False)
        cache.insert(64)
        assert cache.stats.writebacks == 0

    def test_dirty_eviction_counted(self):
        cache = direct_mapped(sets=1)
        cache.insert(0, dirty=True)
        cache.insert(64)
        assert cache.stats.writebacks == 1


class TestInvalidate:
    def test_invalidate_drops_line(self):
        cache = two_way()
        cache.insert(0)
        assert cache.invalidate(0)
        assert not cache.contains(0)
        assert not cache.invalidate(0)

    def test_invalidate_range(self):
        cache = SetAssociativeCache(64 * 1024, 8)
        for block in range(64):
            cache.insert(block * 64)
        dropped = cache.invalidate_range(0, 4096)
        assert dropped == 64
        assert cache.occupied_lines == 0

    def test_flush_returns_dirty_lines(self):
        cache = two_way()
        cache.insert(0, dirty=True)
        cache.insert(64, dirty=False)
        dirty = cache.flush()
        assert [e.block for e in dirty] == [0]
        assert cache.occupied_lines == 0

    def test_flush_counts_writebacks(self):
        """Dirty flush victims hit stats.writebacks exactly like dirty
        LRU evictions on the insert path (regression: flush used to
        return victims without counting them)."""
        cache = two_way()
        cache.insert(0, dirty=True)
        cache.insert(64, dirty=True)
        cache.insert(128, dirty=False)
        assert cache.stats.writebacks == 0
        dirty = cache.flush()
        assert len(dirty) == 2
        assert cache.stats.writebacks == 2
        # A second flush of the now-empty cache adds nothing.
        assert cache.flush() == []
        assert cache.stats.writebacks == 2


class TestClasses:
    def test_class_line_counts(self):
        cache = SetAssociativeCache(4096, 4)
        cache.insert(0, DATA)
        cache.insert(64, MERKLE)
        cache.insert(128, MERKLE)
        assert cache.lines_of_class(DATA) == 1
        assert cache.lines_of_class(MERKLE) == 2

    def test_eviction_decrements_class(self):
        cache = direct_mapped(sets=1)
        cache.insert(0, MERKLE)
        cache.insert(64, DATA)
        assert cache.lines_of_class(MERKLE) == 0
        assert cache.lines_of_class(DATA) == 1

    def test_reinsert_changes_class(self):
        cache = two_way()
        cache.insert(0, DATA)
        cache.insert(0, MERKLE)
        assert cache.lines_of_class(DATA) == 0
        assert cache.lines_of_class(MERKLE) == 1

    def test_occupancy_counts_free_lines_as_data(self):
        cache = SetAssociativeCache(4096, 4)  # 64 lines
        cache.insert(0, MERKLE)
        cache.tick_occupancy()
        assert cache.stats.occupancy_fraction(MERKLE) == pytest.approx(1 / 64)
        assert cache.stats.occupancy_fraction(DATA) == pytest.approx(63 / 64)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=31), st.booleans()), max_size=120))
def test_lru_matches_reference_model(operations):
    """Cross-check against a brute-force per-set LRU list model."""
    cache = SetAssociativeCache(4 * 2 * 64, assoc=2)  # 4 sets, 2-way
    model: dict[int, list] = {s: [] for s in range(4)}

    for block, is_insert in operations:
        address = block * 64
        s = block % 4
        if is_insert:
            cache.insert(address)
            if block in model[s]:
                model[s].remove(block)
            model[s].append(block)
            if len(model[s]) > 2:
                model[s].pop(0)
        else:
            expected = block in model[s]
            assert cache.lookup(address) == expected
            if expected:
                model[s].remove(block)
                model[s].append(block)

    for s, blocks in model.items():
        for block in blocks:
            assert cache.contains(block * 64)


# -- the deferred install ------------------------------------------------------


class Tripwire(list):
    """A recorded snapshot that counts how often it is unpacked."""

    reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


def cache_state(cache: SetAssociativeCache) -> tuple:
    """Contents in LRU order, class tallies in key order, and statistics."""
    return ([tuple(s.items()) for s in cache._sets],
            list(cache._class_lines.items()), cache.stats)


def built(cache: SetAssociativeCache) -> bool:
    """Whether ``cache``'s sets exist, read without building them."""
    try:
        SetAssociativeCache._sets.__get__(cache)
    except AttributeError:
        return False
    return True


def snapshot_source() -> SetAssociativeCache:
    """A 4-set, 2-way cache holding dirty and clean lines of two classes,
    with a zero-count class tally left behind by an eviction."""
    cache = SetAssociativeCache(4 * 2 * 64, assoc=2)
    cache.insert(0, MERKLE, dirty=True)
    for block, dirty in ((4, False), (8, True), (1, True), (5, False),
                         (2, False), (3, True), (7, False)):
        cache.insert(block * 64, DATA, dirty=dirty)
    cache.lookup(5 * 64, write=True)
    assert cache.lines_of_class(MERKLE) == 0 and MERKLE in cache._class_lines
    return cache


def installed(snapshot_form: str, built: bool) -> SetAssociativeCache:
    """A cache restored from ``snapshot_source()``'s contents, its
    install pending or already built by a first touch."""
    source = snapshot_source()
    sets = source._sets
    if snapshot_form == "items":
        sets = tuple(tuple(s.items()) for s in sets)
    cache = SetAssociativeCache(4 * 2 * 64, assoc=2)
    cache.restore_state(sets, source._class_lines)
    if built:
        cache._sets  # the first touch builds the install
    return cache


def eager_reference() -> SetAssociativeCache:
    """What every install must reproduce: the cache that was recorded."""
    cache = snapshot_source()
    cache.reset_stats()
    return cache


def sanitized_insert(cache):
    with sanitizer.sanitized(spot_check_interval=1):
        return cache.insert(9 * 64, DATA)


def engine_probe(cache):
    # A demand lookup inlined over the raw sets reads ``_sets`` directly.
    sets = cache._sets
    block = 5
    entry = sets[block % cache.num_sets].get(block)
    sets[block % cache.num_sets].move_to_end(block)
    return entry


DEFERRED_OPERATIONS = {
    "lookup": lambda c: (c.lookup(5 * 64), c.lookup(6 * 64, write=True)),
    "insert": lambda c: (c.insert(12 * 64, MERKLE, dirty=True),
                         c.insert(2 * 64, DATA, dirty=True)),
    "contains": lambda c: (c.contains(8 * 64), c.contains(9 * 64)),
    "invalidate": lambda c: (c.invalidate(3 * 64), c.invalidate(6 * 64)),
    "invalidate_range": lambda c: c.invalidate_range(0, 8 * 64),
    "flush": lambda c: [(e.block, e.line_class) for e in c.flush()],
    "sanitizer_recount": sanitized_insert,
    "engine_sets": engine_probe,
    "occupancy": lambda c: (c.tick_occupancy(), c.occupied_lines),
}


class TestDeferredInstall:
    @pytest.mark.parametrize("built", [False, True], ids=["pending", "built"])
    @pytest.mark.parametrize("snapshot_form", ["mappings", "items"])
    @pytest.mark.parametrize("operation", sorted(DEFERRED_OPERATIONS))
    def test_install_behaves_as_the_recorded_cache(self, operation,
                                                   snapshot_form, built):
        op = DEFERRED_OPERATIONS[operation]
        expected = eager_reference()
        cache = installed(snapshot_form, built)
        assert op(cache) == op(expected)
        assert cache_state(cache) == cache_state(expected)
        # Built, the cache is a plain one again (no per-read hook).
        assert type(cache) is SetAssociativeCache

    def test_install_copies_the_snapshot(self):
        source = snapshot_source()
        before = [tuple(s.items()) for s in source._sets]
        cache = SetAssociativeCache(4 * 2 * 64, assoc=2)
        cache.restore_state(source._sets, source._class_lines)
        cache.insert(16 * 64, DATA)
        cache.lookup(0, write=True)
        assert [tuple(s.items()) for s in source._sets] == before
        assert cache._sets[0] is not source._sets[0]

    def test_tallies_are_eager(self):
        source = snapshot_source()
        sets = Tripwire(source._sets)
        cache = SetAssociativeCache(4 * 2 * 64, assoc=2)
        cache.restore_state(sets, source._class_lines)
        assert cache.occupied_lines == source.occupied_lines
        assert cache.lines_of_class(DATA) == source.lines_of_class(DATA)
        cache.tick_occupancy()
        assert sets.reads == 0
        assert type(cache) is not SetAssociativeCache  # still pending

    def test_clear_builds_nothing(self):
        source = snapshot_source()
        sets = Tripwire(source._sets)
        cache = SetAssociativeCache(4 * 2 * 64, assoc=2)
        cache.restore_state(sets, source._class_lines)
        cache.clear()
        assert cache.occupied_lines == 0
        assert sets.reads == 0
        assert not built(cache)  # a pending install of empty sets
        fresh = SetAssociativeCache(4 * 2 * 64, assoc=2)
        assert cache_state(cache) == cache_state(fresh)

    def test_second_install_replaces_the_first(self):
        first = Tripwire(snapshot_source()._sets)
        other = SetAssociativeCache(4 * 2 * 64, assoc=2)
        other.insert(40 * 64, MERKLE, dirty=True)
        cache = SetAssociativeCache(4 * 2 * 64, assoc=2)
        cache.restore_state(first, {DATA: 8})
        cache.restore_state(other._sets, other._class_lines)
        assert cache.contains(40 * 64) and not cache.contains(5 * 64)
        assert cache.lines_of_class(DATA) == 0
        assert first.reads == 0
        assert cache_state(cache)[:2] == cache_state(other)[:2]

    def test_install_over_built_sets_replaces_them(self):
        cache = installed("mappings", built=True)
        cache.restore_state(((),) * cache.num_sets, {})
        assert cache.occupied_lines == 0 and not cache.contains(5 * 64)

    def test_snapshot_must_match_the_geometry(self):
        with pytest.raises(ValueError):
            two_way().restore_state(((),) * 3, {})

    @pytest.mark.parametrize("built", [False, True], ids=["pending", "built"])
    def test_pickle_round_trips(self, built):
        cache = installed("mappings", built)
        clone = pickle.loads(pickle.dumps(cache))
        assert type(clone) is SetAssociativeCache
        assert cache_state(clone)[:2] == cache_state(cache)[:2]
        assert clone.insert(12 * 64, DATA) == cache.insert(12 * 64, DATA)
        assert cache_state(clone)[:2] == cache_state(cache)[:2]


def cold_cache(route: str) -> SetAssociativeCache:
    """An empty 4-set, 2-way cache: just constructed, or cleared after
    its sets were built or while an install was pending."""
    if route == "fresh":
        return SetAssociativeCache(4 * 2 * 64, assoc=2)
    cache = snapshot_source() if route == "cleared_built" else installed(
        "mappings", built=False)
    cache.clear()
    return cache


def built_empty() -> SetAssociativeCache:
    cache = SetAssociativeCache(4 * 2 * 64, assoc=2)
    cache._sets  # the first touch builds the empty sets
    return cache


COLD_ROUTES = ["fresh", "cleared_built", "cleared_pending"]
# The engine probe moves a line it expects present; a raw ``_sets`` read
# of a cold cache is the first touch of test_builds_no_set_until_first_touch.
COLD_OPERATIONS = {name: op for name, op in DEFERRED_OPERATIONS.items()
                   if name != "engine_sets"}


class TestColdCache:
    """A cold cache is a pending install of empty sets: construction and
    ``clear`` build no set, and the first touch builds them."""

    @pytest.mark.parametrize("route", COLD_ROUTES)
    def test_builds_no_set_until_first_touch(self, route):
        cache = cold_cache(route)
        assert not built(cache)
        assert cache.occupied_lines == 0 and cache.lines_of_class(DATA) == 0
        cache.tick_occupancy()  # reads only the tallies
        assert not built(cache)
        assert not cache.contains(0)  # a first touch
        assert built(cache) and type(cache) is SetAssociativeCache
        assert cache_state(cache)[:2] == ([()] * 4, [])

    @pytest.mark.parametrize("route", COLD_ROUTES)
    @pytest.mark.parametrize("operation", sorted(COLD_OPERATIONS))
    def test_behaves_as_built_empty_sets(self, operation, route):
        op = COLD_OPERATIONS[operation]
        cache, expected = cold_cache(route), built_empty()
        assert op(cache) == op(expected)
        assert cache_state(cache) == cache_state(expected)

    def test_clear_lets_built_sets_go(self):
        cache = snapshot_source()
        old_sets = cache._sets
        before = [tuple(s.items()) for s in old_sets]
        cache.clear()
        cache.insert(0, DATA)
        assert cache._sets is not old_sets
        assert [tuple(s.items()) for s in old_sets] == before

    def test_install_replaces_the_cold_sets_unbuilt(self):
        source = snapshot_source()
        sets = Tripwire(source._sets)
        cache = cold_cache("cleared_built")
        cache.restore_state(sets, source._class_lines)
        assert not built(cache) and sets.reads == 0
        assert cache_state(cache)[:2] == cache_state(source)[:2]

    @pytest.mark.parametrize("route", COLD_ROUTES)
    def test_pickle_round_trips(self, route):
        clone = pickle.loads(pickle.dumps(cold_cache(route)))
        assert type(clone) is SetAssociativeCache
        assert cache_state(clone) == cache_state(built_empty())
