"""Cache model: lookup, timestamped invalidation, LRU capacity."""

from repro.mem.cache import OWNED, SHARED, Cache, CacheLine


class TestBasics:
    def test_empty_lookup(self):
        c = Cache()
        assert c.lookup(5, 0.0) is None

    def test_insert_then_hit(self):
        c = Cache()
        c.insert(5, SHARED)
        line = c.lookup(5, 10.0)
        assert line is not None
        assert line.state == SHARED

    def test_contains(self):
        c = Cache()
        c.insert(1, OWNED)
        assert 1 in c
        assert 2 not in c

    def test_len(self):
        c = Cache()
        for b in range(4):
            c.insert(b, SHARED)
        assert len(c) == 4

    def test_drop(self):
        c = Cache()
        c.insert(1, SHARED)
        c.drop(1)
        assert c.lookup(1, 0.0) is None

    def test_drop_missing_is_noop(self):
        Cache().drop(42)

    def test_reinsert_replaces_state(self):
        c = Cache()
        c.insert(1, SHARED)
        c.insert(1, OWNED)
        assert c.lookup(1, 0.0).state == OWNED

    def test_blocks_listing(self):
        c = Cache()
        c.insert(3, SHARED)
        c.insert(7, SHARED)
        assert len(c) == 2 and 3 in c and 7 in c and 5 not in c


class TestTimestampedInvalidation:
    def test_valid_before_invalidation_arrives(self):
        c = Cache()
        c.insert(1, SHARED)
        c.invalidate_at(1, when=100.0)
        assert c.lookup(1, 99.9) is not None

    def test_invalid_after_arrival(self):
        c = Cache()
        c.insert(1, SHARED)
        c.invalidate_at(1, when=100.0)
        assert c.lookup(1, 100.0) is None

    def test_earlier_invalidation_wins(self):
        c = Cache()
        c.insert(1, SHARED)
        c.invalidate_at(1, when=100.0)
        c.invalidate_at(1, when=200.0)  # later one must not extend life
        assert c.lookup(1, 150.0) is None

    def test_earlier_overrides_later(self):
        c = Cache()
        c.insert(1, SHARED)
        c.invalidate_at(1, when=200.0)
        c.invalidate_at(1, when=100.0)
        assert c.lookup(1, 150.0) is None

    def test_invalidate_missing_returns_false(self):
        assert Cache().invalidate_at(9, 1.0) is False

    def test_reinsert_clears_pending_invalidation(self):
        c = Cache()
        c.insert(1, SHARED)
        c.invalidate_at(1, when=100.0)
        c.insert(1, SHARED)  # fresh fetch
        assert c.lookup(1, 150.0) is not None

    def test_lazy_removal_happens_once(self):
        c = Cache()
        c.insert(1, SHARED)
        c.invalidate_at(1, when=10.0)
        assert c.lookup(1, 20.0) is None
        assert c.lookup(1, 5.0) is None  # line is gone entirely now


class TestCapacity:
    def test_unbounded_by_default(self):
        c = Cache()
        for b in range(1000):
            assert c.insert(b, SHARED) is None
        assert len(c) == 1000

    def test_eviction_at_capacity(self):
        c = Cache(capacity_lines=2)
        c.insert(1, SHARED)
        c.insert(2, SHARED)
        evicted = c.insert(3, SHARED)
        assert evicted is not None
        assert evicted[0] == 1  # LRU
        assert len(c) == 2
        assert c.evictions == 1

    def test_lookup_refreshes_recency(self):
        c = Cache(capacity_lines=2)
        c.insert(1, SHARED)
        c.insert(2, SHARED)
        c.lookup(1, 0.0)  # 1 becomes MRU
        evicted = c.insert(3, SHARED)
        assert evicted[0] == 2

    def test_reinsert_does_not_evict(self):
        c = Cache(capacity_lines=2)
        c.insert(1, SHARED)
        c.insert(2, SHARED)
        assert c.insert(2, OWNED) is None

    def test_capacity_validation(self):
        import pytest

        with pytest.raises(ValueError):
            Cache(capacity_lines=0)


class TestCacheLine:
    def test_defaults(self):
        line = CacheLine(SHARED)
        assert line.inval_at is None
        assert line.ready_at == 0.0
        assert line.updates_since_read == 0

    def test_ready_at_for_prefetch(self):
        line = CacheLine(SHARED, ready_at=55.0)
        assert line.ready_at == 55.0
