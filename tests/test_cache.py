"""Unit tests for the cache and bus traffic accounting."""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.machine.cache import Bus, Cache
from repro.machine.costs import LINES_PER_PAGE


@pytest.fixture
def bus() -> Bus:
    return Bus()


@pytest.fixture
def cache(bus: Bus) -> Cache:
    return Cache(bus, "core0", capacity_bytes=1024)  # 16 lines


class TestCacheBasics:
    def test_first_access_misses(self, cache):
        assert cache.access(0x1000) is True
        assert cache.misses == 1

    def test_second_access_hits(self, cache):
        cache.access(0x1000)
        assert cache.access(0x1000) is False
        assert cache.hits == 1

    def test_same_line_different_bytes_hit(self, cache):
        cache.access(0x1000)
        assert cache.access(0x103F) is False

    def test_adjacent_line_misses(self, cache):
        cache.access(0x1000)
        assert cache.access(0x1040) is True

    def test_miss_counts_bus_read(self, cache, bus):
        cache.access(0x1000)
        assert bus.transactions("core0") == 1

    def test_too_small_capacity_rejected(self, bus):
        with pytest.raises(ValueError):
            Cache(bus, "x", capacity_bytes=32)


class TestEviction:
    def test_lru_evicts_oldest(self, cache):
        for i in range(16):
            cache.access(i * 64)
        cache.access(16 * 64)  # evicts line 0
        assert cache.access(0) is True  # line 0 gone
        assert cache.resident_lines == 16

    def test_touch_refreshes_lru_position(self, cache):
        for i in range(16):
            cache.access(i * 64)
        cache.access(0)  # refresh line 0
        cache.access(16 * 64)  # evicts line 1, not 0
        assert cache.access(0) is False
        assert cache.access(64) is True

    def test_dirty_eviction_writes_back(self, cache, bus):
        cache.access(0, write=True)
        for i in range(1, 17):
            cache.access(i * 64)
        assert bus.counters["core0"].writes == 1

    def test_clean_eviction_no_writeback(self, cache, bus):
        for i in range(17):
            cache.access(i * 64)
        assert bus.counters["core0"].writes == 0


class TestRangeAndPage:
    def test_access_range_counts_lines(self, cache):
        misses = cache.access_range(0x1000, 256)
        assert misses == 4

    def test_access_range_partial_lines(self, cache):
        # 2 bytes straddling a line boundary touch two lines.
        assert cache.access_range(0x103F, 2) == 2

    def test_access_range_zero_noop(self, cache):
        assert cache.access_range(0x1000, 0) == 0

    def test_access_page_streams_all_lines(self, bus):
        cache = Cache(bus, "c", capacity_bytes=1 << 20)
        assert cache.access_page(5) == LINES_PER_PAGE
        assert cache.access_page(5) == 0  # now resident

    def test_invalidate_page(self, bus):
        cache = Cache(bus, "c", capacity_bytes=1 << 20)
        cache.access_page(5)
        cache.invalidate_page(5)
        assert cache.access_page(5) == LINES_PER_PAGE

    def test_miss_rate(self, cache):
        cache.access(0)
        cache.access(0)
        assert cache.miss_rate == pytest.approx(0.5)


class TestBus:
    def test_per_source_accounting(self, bus):
        bus.read("a", 3)
        bus.write("b", 2)
        assert bus.transactions("a") == 3
        assert bus.transactions("b") == 2
        assert bus.total_transactions() == 5
        assert bus.snapshot() == {"a": 3, "b": 2}

    def test_sweep_flag_nesting(self, bus):
        assert not bus.sweep_active
        bus.sweep_begin()
        bus.sweep_begin()
        bus.sweep_end()
        assert bus.sweep_active
        bus.sweep_end()
        assert not bus.sweep_active

    def test_transactions_query_does_not_mutate(self, bus):
        """Querying an unknown source must not create a zero counter that
        pollutes snapshot()/total_transactions()."""
        assert bus.transactions("ghost") == 0
        assert bus.snapshot() == {}
        assert bus.total_transactions() == 0
        assert "ghost" not in bus.counters

    def test_unbalanced_sweep_end_raises(self, bus):
        with pytest.raises(SimulationError):
            bus.sweep_end()
        bus.sweep_begin()
        bus.sweep_end()
        with pytest.raises(SimulationError):
            bus.sweep_end()


def _mirror_states(a: Cache, b: Cache) -> tuple:
    return (
        (list(a._lines.items()), a.hits, a.misses,
         {k: (v.reads, v.writes) for k, v in a.bus.counters.items()}),
        (list(b._lines.items()), b.hits, b.misses,
         {k: (v.reads, v.writes) for k, v in b.bus.counters.items()}),
    )


class TestBatchedEquivalence:
    """The batched span path must be bit-identical to the per-line loop:
    same miss counts, same bus traffic, same hit/miss counters, and the
    same final LRU order and dirty bits."""

    @pytest.mark.parametrize("capacity", [64, 128, 1024, 4096, 1 << 20])
    def test_random_mixes_match_scalar(self, capacity, monkeypatch):
        rng = random.Random(capacity)
        fast, ref = Cache(Bus(), "c", capacity), Cache(Bus(), "c", capacity)
        # The reference cache streams every span through the per-line loop.
        monkeypatch.setattr(ref, "_touch_span", ref._touch_loop)
        for _ in range(120):
            write = rng.random() < 0.5
            if rng.random() < 0.5:
                addr = rng.randrange(0, 1 << 16)
                nbytes = rng.randrange(1, 700)
                got = fast.access_range(addr, nbytes, write)
                want = ref.access_range(addr, nbytes, write)
            else:
                vpn = rng.randrange(0, 20)
                got = fast.access_page(vpn, write)
                want = ref.access_page(vpn, write)
            assert got == want
            state_fast, state_ref = _mirror_states(fast, ref)
            assert state_fast == state_ref

    def test_page_stream_smaller_than_cache_footprint(self):
        # Capacity below one page: the span must self-evict exactly as
        # the scalar loop does (the batched path punts to it).
        fast, ref = Cache(Bus(), "c", 1024), Cache(Bus(), "c", 1024)
        assert fast.access_page(0) == ref._touch_loop(0, LINES_PER_PAGE - 1, False)
        assert fast.access_page(0, write=True) == ref._touch_loop(
            0, LINES_PER_PAGE - 1, True
        )
        state_fast, state_ref = _mirror_states(fast, ref)
        assert state_fast == state_ref

    def test_lru_front_hit_inside_span(self):
        # A span line sitting at the LRU front while the span also evicts:
        # the interleaving-sensitive case the fast path must replay.
        fast, ref = Cache(Bus(), "c", 1024), Cache(Bus(), "c", 1024)  # 16 lines
        for cache in (fast, ref):
            cache.access(5 * 64, write=True)  # page-0 line, oldest, dirty
            for i in range(15):
                cache.access((100 + i) * 64)  # fill the rest
        got = fast.access_range(0, 8 * 64)  # spans lines 0-7 incl. line 5
        want = ref._touch_loop(0, 7, False)
        assert got == want
        state_fast, state_ref = _mirror_states(fast, ref)
        assert state_fast == state_ref
