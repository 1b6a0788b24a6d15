"""Full-map directory state."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.directory import NORMAL, SPECIAL, DirEntry, Directory, SharerTuples


class TestDirEntry:
    def test_fresh_entry(self):
        e = DirEntry()
        assert e.sharers == 0
        assert e.owner is None
        assert e.mode == NORMAL

    def test_add_remove_sharer(self):
        e = DirEntry()
        e.sharers |= 1 << 3
        e.sharers |= 1 << 5
        assert e.is_sharer(3)
        assert e.is_sharer(5)
        assert not e.is_sharer(4)
        e.remove_sharer(3)
        assert not e.is_sharer(3)
        assert e.is_sharer(5)

    def test_remove_missing_is_noop(self):
        e = DirEntry()
        e.remove_sharer(7)
        assert e.sharers == 0

    def test_sharer_list_sorted(self):
        e = DirEntry()
        for p in (9, 1, 4):
            e.sharers |= 1 << p
        assert SharerTuples()[e.sharers] == (1, 4, 9)

    def test_sharer_list_exclude(self):
        e = DirEntry()
        e.sharers = 0b111
        assert SharerTuples()[e.sharers & ~(1 << 1)] == (0, 2)

    def test_num_sharers(self):
        e = DirEntry()
        e.sharers = (1 << 16) - 1
        assert len(SharerTuples()[e.sharers]) == 16

    def test_mode_transitions(self):
        e = DirEntry()
        e.mode = SPECIAL
        assert e.mode == SPECIAL


class TestDirectory:
    def test_entry_created_on_demand(self):
        d = Directory()
        assert d.peek(5) is None
        e = d.entry(5)
        assert d.peek(5) is e
        assert len(d) == 1

    def test_entry_is_stable(self):
        d = Directory()
        assert d.entry(1) is d.entry(1)

    def test_blocks(self):
        d = Directory()
        d.entry(2)
        d.entry(9)
        assert sorted(d.blocks()) == [2, 9]

    def test_peek_never_creates_an_entry(self):
        d = Directory()
        assert d.peek(5) is None
        assert 5 not in d
        assert len(d) == 0
        d[3]
        assert d.peek(5) is None
        assert d.blocks() == [3]

    def test_indexing_creates_the_entry_once(self):
        d = Directory()
        e = d[4]
        assert isinstance(e, DirEntry)
        assert d[4] is e is d.entry(4)
        assert len(d) == 1

    def test_blocks_by_home(self):
        d = Directory()
        for block in (0, 1, 5, 9, 12):
            d[block]
        d.peek(7)  # a peek is not a directory entry
        assert d.blocks_by_home(lambda b: b % 4, 4) == [2, 3, 0, 0]


class TestSharerTuples:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), nprocs=st.integers(1, 256))
    def test_cached_tuple_matches_sharer_list(self, data, nprocs):
        mask = data.draw(st.integers(0, (1 << nprocs) - 1), label="mask")
        proc = data.draw(st.integers(0, nprocs - 1), label="proc")
        members = [p for p in range(nprocs) if mask >> p & 1]
        sharers = SharerTuples()
        assert sharers[mask & ~(1 << proc)] == tuple(p for p in members if p != proc)
        assert sharers[mask] == tuple(members)

    def test_cached_tuple_is_shared(self):
        sharers = SharerTuples()
        first = sharers[0b1011]
        assert first == (0, 1, 3)
        assert sharers[0b1011] is first
        assert sharers[0] == ()
