"""Store buffer and merge buffer semantics."""

import pytest

from repro.mem.buffers import MergeBuffer, StoreBuffer


def const_service(latency):
    """A store-buffer service: ``(proc, block, nwords, start) -> retire``."""
    return lambda proc, block, nwords, start: start + latency


class TestStoreBuffer:
    def test_push_into_empty_no_stall(self):
        sb = StoreBuffer(4)
        proceed, stall = sb.push(10.0, const_service(100), 0, 0)
        assert proceed == 10.0
        assert stall == 0.0

    def test_serial_retirement(self):
        sb = StoreBuffer(4)
        sb.push(0.0, const_service(100), 0, 0)  # retires at 100
        sb.push(0.0, const_service(100), 0, 0)  # starts at 100, retires at 200
        assert sb.last_retire == pytest.approx(200.0)

    def test_full_buffer_stalls_until_oldest_retires(self):
        sb = StoreBuffer(2)
        sb.push(0.0, const_service(100), 0, 0)  # retires 100
        sb.push(0.0, const_service(100), 0, 0)  # retires 200
        proceed, stall = sb.push(0.0, const_service(100), 0, 0)
        assert stall == pytest.approx(100.0)
        assert proceed == pytest.approx(100.0)
        assert sb.full_stalls == 1

    def test_drain_frees_slots(self):
        sb = StoreBuffer(1)
        sb.push(0.0, const_service(50), 0, 0)
        proceed, stall = sb.push(100.0, const_service(50), 0, 0)  # already retired
        assert stall == 0.0
        assert proceed == 100.0

    def test_occupancy(self):
        sb = StoreBuffer(4)
        sb.push(0.0, const_service(100), 0, 0)
        sb.push(0.0, const_service(100), 0, 0)
        assert sb.occupancy(50.0) == 2
        assert sb.occupancy(150.0) == 1
        assert sb.occupancy(250.0) == 0

    def test_flush_waits_for_last_retire(self):
        sb = StoreBuffer(4)
        sb.push(0.0, const_service(100), 0, 0)
        sb.push(0.0, const_service(100), 0, 0)
        done, stall = sb.flush(50.0)
        assert done == pytest.approx(200.0)
        assert stall == pytest.approx(150.0)

    def test_flush_empty_is_free(self):
        sb = StoreBuffer(4)
        done, stall = sb.flush(42.0)
        assert done == 42.0
        assert stall == 0.0

    def test_flush_after_drain_is_free(self):
        sb = StoreBuffer(4)
        sb.push(0.0, const_service(10), 0, 0)
        done, stall = sb.flush(100.0)
        assert stall == 0.0

    def test_pending_block_tracking(self):
        sb = StoreBuffer(4)
        sb.push(0.0, const_service(100), 0, 7)
        assert sb.has_pending(7)
        assert not sb.has_pending(8)

    def test_pending_blocks_cleared_on_flush(self):
        sb = StoreBuffer(4)
        sb.push(0.0, const_service(100), 0, 7)
        sb.flush(0.0)
        assert not sb.has_pending(7)

    def test_service_receives_push_arguments(self):
        sb = StoreBuffer(4)
        calls = []

        def service(proc, block, nwords, start):
            calls.append((proc, block, nwords, start))
            return start + 5

        sb.push(3.0, service, 2, 9, 4)
        sb.push(3.0, service, 2, 11)
        assert calls == [(2, 9, 4, 3.0), (2, 11, 0, 8.0)]

    def test_block_forwardable_until_flush_after_retiring(self):
        # Documents a known deviation, kept because fixing it changes
        # simulated results: a block stays forwardable (has_pending)
        # until the next flush(), even after its entry has retired.
        sb = StoreBuffer(4)
        sb.push(0.0, const_service(10), 0, 7)  # retires at 10
        sb.push(50.0, const_service(10), 0, 9)  # retires at 60
        assert sb.occupancy(100.0) == 0
        assert sb.has_pending(7)
        assert sb.has_pending(9)
        sb.flush(100.0)
        assert not sb.has_pending(7)

    def test_service_must_not_go_backwards(self):
        sb = StoreBuffer(4)
        with pytest.raises(ValueError):
            sb.push(10.0, lambda proc, block, nwords, start: start - 1, 0, 0)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            StoreBuffer(0)

    def test_total_entries_counted(self):
        sb = StoreBuffer(4)
        for _ in range(5):
            sb.push(0.0, const_service(1), 0, 0)
        assert sb.total_entries == 5


class TestMergeBuffer:
    def test_first_write_opens_line(self):
        mb = MergeBuffer(1)
        assert mb.write(3, 0, 0.0) is None
        assert mb.has(3)

    def test_same_line_merges(self):
        mb = MergeBuffer(1)
        mb.write(3, 0, 0.0)
        assert mb.write(3, 1, 1.0) is None
        assert len(mb) == 1

    def test_repeated_word_counts_merged(self):
        mb = MergeBuffer(1)
        mb.write(3, 0, 0.0)
        mb.write(3, 0, 1.0)
        assert mb.merged_writes == 1

    def test_new_line_evicts_oldest_when_full(self):
        mb = MergeBuffer(1)
        mb.write(3, 0, 0.0)
        mb.write(3, 1, 0.0)
        evicted = mb.write(9, 2, 5.0)
        assert evicted is not None
        assert evicted.block == 3
        assert evicted.nwords == 2
        assert mb.has(9) and not mb.has(3)
        assert mb.evictions == 1

    def test_capacity_two_holds_two_lines(self):
        mb = MergeBuffer(2)
        assert mb.write(1, 0, 0.0) is None
        assert mb.write(2, 0, 0.0) is None
        evicted = mb.write(3, 0, 0.0)
        assert evicted.block == 1

    def test_flush_all_returns_and_clears(self):
        mb = MergeBuffer(2)
        mb.write(1, 0, 0.0)
        mb.write(2, 0, 0.0)
        entries = mb.flush_all()
        assert sorted(e.block for e in entries) == [1, 2]
        assert len(mb) == 0
        assert mb.flush_all() == []

    def test_nwords_counts_distinct_words(self):
        mb = MergeBuffer(1)
        mb.write(1, 0, 0.0)
        mb.write(1, 5, 0.0)
        mb.write(1, 5, 0.0)
        (entry,) = mb.flush_all()
        assert entry.nwords == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            MergeBuffer(0)
