"""The z-machine model: oracle producer, counter-delayed reads."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.config import MachineConfig
from repro.mem.systems.zmachine import ZMachine


@pytest.fixture
def z():
    return ZMachine(MachineConfig(nprocs=4))


L = 6.4  # 4 bytes * 1.6 cycles/byte


class TestWrites:
    def test_producer_never_stalls(self, z):
        res = z.write(0, 0, now=100.0)
        assert res.time == pytest.approx(100.0 + 1.0)
        assert res.write_stall == 0.0
        assert res.buffer_flush == 0.0

    def test_write_schedules_propagation(self, z):
        z.write(0, 0, now=100.0)
        entry = z.directory.peek(0)
        assert entry.avail_time == pytest.approx(100.0 + L)
        assert entry.last_writer == 0

    def test_overlapping_writes_extend_deadline(self, z):
        z.write(0, 0, now=100.0)
        z.write(1, 0, now=102.0)
        assert z.directory.peek(0).avail_time == pytest.approx(102.0 + L)

    def test_write_counts(self, z):
        z.write(0, 0, 0.0)
        z.write(0, 4, 0.0)
        assert z.shared_writes == 2
        assert z.directory.blocks() == [0, 1]

    def test_network_cycles_accumulate(self, z):
        z.write(0, 0, 0.0)
        z.write(0, 4, 0.0)
        assert z.network_cycles == pytest.approx(2 * L)


class TestReads:
    def test_early_consumer_pays_inherent_cost(self, z):
        z.write(1, 0, now=100.0)
        res = z.read(0, 0, now=102.0)
        assert res.read_stall == pytest.approx(100.0 + L - 102.0)
        assert not res.hit

    def test_late_consumer_free(self, z):
        z.write(1, 0, now=100.0)
        res = z.read(0, 0, now=200.0)
        assert res.read_stall == 0.0
        assert res.hit

    def test_stall_bounded_by_L(self, z):
        z.write(1, 0, now=100.0)
        res = z.read(0, 0, now=100.0)
        assert res.read_stall <= L + 1e-9

    def test_producer_reads_own_write_immediately(self, z):
        z.write(1, 0, now=100.0)
        res = z.read(1, 0, now=101.0)
        assert res.read_stall == 0.0

    def test_cold_read_free(self, z):
        res = z.read(0, 1234, now=5.0)
        assert res.read_stall == 0.0

    def test_word_granularity(self, z):
        """4-byte lines: writing word 0 never delays reads of word 1."""
        z.write(1, 0, now=100.0)
        res = z.read(0, 4, now=101.0)
        assert res.read_stall == 0.0

    def test_stalled_reads_counted(self, z):
        z.write(1, 0, now=100.0)
        z.read(0, 0, now=101.0)
        z.read(0, 0, now=200.0)
        assert z.stalled_reads == 1


class TestSyncSemantics:
    def test_release_is_free(self, z):
        res = z.release(0, now=50.0)
        assert res.time == 50.0
        assert res.buffer_flush == 0.0

    def test_acquire_is_free(self, z):
        assert z.acquire(0, now=50.0).time == 50.0


class TestTraffic:
    def test_summary_keys(self, z):
        z.write(0, 0, 0.0)
        s = z.traffic_summary()
        assert s["shared_writes"] == 1
        assert s["network_cycles"] == pytest.approx(L)
        assert s["contention_cycles"] == 0.0

    def test_latency_uses_z_line_size(self):
        cfg = MachineConfig(nprocs=4, z_line_size=8)
        z = ZMachine(cfg)
        assert z.latency == pytest.approx(8 * 1.6)

    def test_rejects_non_ideal_network(self):
        from repro.mem.systems import make_system
        from repro.network.routed import RoutedNetwork
        from repro.network.topology import Mesh2D

        with pytest.raises(ValueError):
            make_system(
                "z-mc",
                MachineConfig(nprocs=4),
                RoutedNetwork(Mesh2D(2, 2), 1.6),
            )


#: One step of a z-machine access stream: (write?, proc, block, time
#: advance, where a read lands against its block's ``avail_time``).
_STEP = st.tuples(
    st.booleans(),
    st.integers(0, 3),
    st.integers(0, 3),
    st.one_of(st.sampled_from([0.0, 1.0, L]), st.floats(0.0, 3 * L)),
    st.sampled_from(["now", "at", "just_before", "midway"]),
)


@given(steps=st.lists(_STEP, max_size=60))
def test_settled_horizon_matches_per_block_rule(steps):
    """Every read equals the per-block rule evaluated on the directory,
    with or without the settled-horizon shortcut, and after every write
    ``settled_horizon`` is the latest ``avail_time`` in the directory."""
    z = ZMachine(MachineConfig(nprocs=4))
    hit = z._hit_cycles
    now = 0.0
    for is_write, proc, block, advance, land in steps:
        now += advance
        addr = block * z.line_size
        if is_write:
            z.write(proc, addr, now)
            assert z.settled_horizon == max(e.avail_time for e in z.directory.values())
            continue
        entry = z.directory.peek(block)
        if entry is not None and entry.avail_time > now:
            now = {
                "now": now,
                "at": entry.avail_time,
                "just_before": max(now, math.nextafter(entry.avail_time, 0.0)),
                "midway": (now + entry.avail_time) / 2,
            }[land]
        if entry is not None and entry.last_writer != proc and entry.avail_time > now:
            want = (entry.avail_time + hit, entry.avail_time - now, False)
        else:
            want = (now + hit, 0.0, True)
        res = z.read(proc, addr, now)
        assert (res.time, res.read_stall, res.hit) == want
