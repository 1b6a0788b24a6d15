"""ReadNB / Stall engine operations and the feedback protocol."""

import pytest

from repro.config import MachineConfig
from repro.runtime import Machine
from repro.sim.events import Compute, ReadNB, Stall, STALL_CATEGORIES


class TestReadNB:
    def test_clock_advances_by_issue_cost_only(self):
        machine = Machine(MachineConfig(nprocs=1), "RCinv")
        arr = machine.shm.array(8, "a")
        feedback = []

        def worker(ctx):
            fb = yield ReadNB(arr.addr(0))
            feedback.append(fb)

        res = machine.run(worker)
        (now, access) = feedback[0]
        assert now == pytest.approx(machine.config.cache_hit_cycles)
        assert access.time > now  # data arrives later (it was a cold miss)
        assert res.procs[0].read_stall == 0.0
        assert res.procs[0].read_misses == 1

    def test_hit_data_ready_immediately(self):
        machine = Machine(MachineConfig(nprocs=1), "RCinv")
        arr = machine.shm.array(8, "a")
        feedback = []

        def worker(ctx):
            yield ReadNB(arr.addr(0))  # miss, warms the cache
            yield Compute(100000)
            fb = yield ReadNB(arr.addr(0))
            feedback.append(fb)

        machine.run(worker)
        now, access = feedback[0]
        assert access.hit
        assert access.time <= now + machine.config.cache_hit_cycles

    def test_outstanding_miss_results_are_independent(self):
        # Miss results come from a per-system flyweight; the engine must
        # copy them for ReadNB, so the first fed-back result keeps its
        # values after a second miss reuses the flyweight.
        machine = Machine(MachineConfig(nprocs=2), "RCinv")
        arr = machine.shm.array(64, "a", align_line=True)
        far = arr.addr(32)
        feedback = []

        def worker(ctx):
            if ctx.pid != 0:
                return
            first = yield ReadNB(arr.addr(0))
            snapshot = (first[1].time, first[1].read_stall, first[1].hit)
            second = yield ReadNB(far)
            feedback.append((first, snapshot, second))

        machine.run(worker)
        (first, snapshot, second) = feedback[0]
        assert not first[1].hit and not second[1].hit
        assert first[1] is not second[1]
        assert (first[1].time, first[1].read_stall, first[1].hit) == snapshot
        assert second[1].time > first[1].time

    def test_feedback_after_ordinary_ops(self):
        # Ordinary ops feed the thread's clock back as a bare float
        # (only ReadNB carries a (time, AccessResult) tuple).
        machine = Machine(MachineConfig(nprocs=1), "RCinv")
        feedback = []

        def worker(ctx):
            fb = yield Compute(25)
            feedback.append(fb)

        machine.run(worker)
        assert feedback[0] == pytest.approx(25.0)


class TestStall:
    @pytest.mark.parametrize("category,attr", [
        ("read", "read_stall"),
        ("write", "write_stall"),
        ("flush", "buffer_flush"),
        ("sync", "sync_wait"),
    ])
    def test_categories_charged(self, category, attr):
        machine = Machine(MachineConfig(nprocs=1), "RCinv")

        def worker(ctx):
            yield Stall(42.0, category)

        res = machine.run(worker)
        assert getattr(res.procs[0], attr) == pytest.approx(42.0)
        assert res.total_time == pytest.approx(42.0)

    def test_invalid_category(self):
        with pytest.raises(ValueError):
            Stall(1.0, "banana")

    def test_negative_cycles(self):
        with pytest.raises(ValueError):
            Stall(-1.0)

    def test_categories_constant(self):
        assert set(STALL_CATEGORIES) == {"read", "write", "flush", "sync"}
