"""Correctness-analysis subsystem: race detector + invariant checker."""

import pytest

from repro.__main__ import main
from repro.analysis.checkers import (
    InvariantChecker,
    RaceDetector,
    execute_check,
)
from repro.apps.factory import AppFactory
from repro.config import MachineConfig
from repro.core.parallel import JobSpec, ResultCache, run_jobs
from repro.runtime import Barrier, Lock, Machine
from repro.runtime.channel import DataChannel
from repro.sim.events import Compute
from repro.sim.observer import subscribe
from repro.sim.stats import AccessResult, SyncPoint
from repro.sim.trace import TracingMemory


def run_detected(worker, nprocs=2, system="RCinv", setup=None):
    """Run ``worker`` under a race detector and return its report."""
    machine = Machine(MachineConfig(nprocs=nprocs), system)
    state = setup(machine) if setup else None
    detector = RaceDetector.attach(machine)
    machine.run(lambda ctx: worker(ctx, machine, state))
    return detector.report


class TestRaceDetector:
    def test_locked_counter_is_clean(self):
        def setup(machine):
            return machine.shm.scalar("ctr"), Lock(machine.sync)

        def worker(ctx, machine, state):
            ctr, lock = state
            for _ in range(3):
                yield from lock.acquire()
                yield from ctr.incr(1)
                yield from lock.release()
                yield Compute(25.0)

        report = run_detected(worker, setup=setup)
        assert report.clean
        assert report.accesses > 0
        assert report.sync_events > 0

    def test_unlocked_counter_races(self):
        def setup(machine):
            return machine.shm.scalar("ctr")

        def worker(ctx, machine, ctr):
            for _ in range(3):
                yield from ctr.incr(1)
                yield Compute(25.0)

        report = run_detected(worker, setup=setup)
        assert not report.clean
        race = report.races[0]
        assert race.array == "ctr"
        assert race.element == 0
        assert {race.first.kind, race.second.kind} <= {"read", "write"}
        assert race.first.proc != race.second.proc

    def test_barrier_orders_producer_and_consumer(self):
        def setup(machine):
            return machine.shm.array(8, "data", align_line=True), Barrier(machine.sync)

        def worker(ctx, machine, state):
            data, barrier = state
            if ctx.pid == 0:
                for i in range(8):
                    yield from data.write(i, i)
            yield from barrier.wait()
            if ctx.pid == 1:
                for i in range(8):
                    yield from data.read(i)

        report = run_detected(worker, setup=setup)
        assert report.clean

    def test_missing_barrier_races(self):
        def setup(machine):
            return machine.shm.array(8, "data", align_line=True)

        def worker(ctx, machine, data):
            if ctx.pid == 0:
                for i in range(8):
                    yield from data.write(i, i)
            else:
                yield Compute(5000.0)
                for i in range(8):
                    yield from data.read(i)

        report = run_detected(worker, setup=setup)
        assert not report.clean
        kinds = {(r.first.kind, r.second.kind) for r in report.races}
        assert ("write", "read") in kinds or ("read", "write") in kinds

    def test_flag_channel_is_clean(self):
        def setup(machine):
            return DataChannel(machine, nwords=8, consumers=1)

        def worker(ctx, machine, chan):
            if ctx.pid == 0:
                for epoch in range(3):
                    yield from chan.produce([epoch] * 8)
            else:
                reader = chan.reader()
                for _ in range(3):
                    yield from reader.next()

        report = run_detected(worker, setup=setup)
        assert report.clean
        assert report.sync_events > 0

    def test_relaxed_read_label_suppresses_read_races(self):
        def setup(machine):
            return machine.shm.array(4, "poll", align_line=True, relaxed="read")

        def worker(ctx, machine, poll):
            if ctx.pid == 0:
                yield from poll.write(0, 1)
            else:
                yield Compute(500.0)
                yield from poll.read(0)

        report = run_detected(worker, setup=setup)
        assert report.clean
        assert report.relaxed_skipped > 0

    def test_relaxed_read_still_reports_write_write(self):
        def setup(machine):
            return machine.shm.array(4, "poll", align_line=True, relaxed="read")

        def worker(ctx, machine, poll):
            yield from poll.write(0, ctx.pid)

        report = run_detected(worker, setup=setup)
        assert not report.clean
        assert report.races[0].first.kind == "write"
        assert report.races[0].second.kind == "write"

    def test_relaxed_all_suppresses_everything(self):
        def setup(machine):
            return machine.shm.array(4, "free", align_line=True, relaxed="all")

        def worker(ctx, machine, free):
            yield from free.write(0, ctx.pid)
            yield from free.read(0)

        report = run_detected(worker, setup=setup)
        assert report.clean
        assert report.relaxed_skipped > 0

    def test_invalid_relaxed_label_rejected(self):
        machine = Machine(MachineConfig(nprocs=2), "RCinv")
        with pytest.raises(ValueError):
            machine.shm.array(4, "bad", relaxed="sometimes")

    def test_without_shm_reports_raw_addresses(self):
        machine = Machine(MachineConfig(nprocs=2), "RCinv")
        arr = machine.shm.array(4, "data", align_line=True)
        detector = subscribe(machine.engine, RaceDetector(2, shm=None))

        def worker(ctx):
            yield from arr.write(0, ctx.pid)

        machine.run(worker)
        report = detector.report
        assert not report.clean
        assert report.races[0].array.startswith("addr@")

    def test_unnamed_array_reported_by_base_address(self):
        machine = Machine(MachineConfig(nprocs=2), "RCinv")
        machine.shm.array(3, "pad")
        arr = machine.shm.array(4)
        detector = RaceDetector.attach(machine)

        def worker(ctx):
            yield from arr.write(1, ctx.pid)

        machine.run(worker)
        race = detector.report.races[0]
        assert (race.array, race.element) == (f"@0x{arr.base:x}", 1)

    def test_phase_marker_applies_deferred_joins(self):
        """A lock acquire's join waits for the acquirer's next callback;
        a phase marker is one, exactly as a traced phase event was."""
        detector = RaceDetector(2)
        lock = SyncPoint("lock", 0, 0)
        hit = AccessResult(0.0, hit=True)
        detector.on_access(0, "write", 64, 0.0, hit, 0.0)
        detector.on_access(0, "release", lock, 1.0, hit, 0.0)
        detector.on_access(1, "acquire", lock, 2.0, hit, 0.0)
        assert detector._clocks[1][0] == 0
        detector.on_phase(1, 3.0, "next")
        assert detector._clocks[1][0] == 1
        detector.on_access(1, "read", 64, 4.0, hit, 0.0)
        assert detector.report.clean
        assert detector.events == 5


class _FakeMem:
    """Memory system without protocol state: only the result checks apply."""


class TestInvariantChecker:
    def run_checked(self, system="RCinv", nprocs=4):
        machine = Machine(MachineConfig(nprocs=nprocs), system)
        data = machine.shm.array(32, "data", align_line=True)
        lock = Lock(machine.sync)
        checked = InvariantChecker.attach(machine)

        def worker(ctx):
            for i in range(8):
                yield from data.write(ctx.pid * 8 + i, ctx.pid)
            yield from lock.acquire()
            yield from data.read(0)
            yield from lock.release()

        machine.run(worker)
        return machine, checked

    @pytest.mark.parametrize("system", ["RCinv", "RCupd", "RCadapt", "RCcomp", "SCinv", "z-mc"])
    def test_real_protocols_are_clean(self, system):
        _, checked = self.run_checked(system=system)
        checked.final_check()
        assert checked.clean, checked.describe()
        assert checked.checks_run > 0

    def test_mutated_presence_bits_caught(self):
        machine, checked = self.run_checked()
        inner = checked.memsys
        # Find a block some cache currently holds, then corrupt the
        # directory by clearing its presence bits behind the protocol's
        # back — the audit must notice the inconsistency.
        for block in inner.directory.blocks():
            holders = [
                p
                for p, cache in enumerate(inner.caches)
                if cache.peek(block) is not None and cache.peek(block).inval_at is None
            ]
            if holders:
                inner.directory.entry(block).sharers = 0
                inner.directory.entry(block).owner = None
                break
        else:
            pytest.fail("no currently-cached block to corrupt")
        checked.full_check(now=1e9)
        assert not checked.clean
        assert any(v.rule == "presence-bits" for v in checked.violations)

    def test_mutated_directory_owner_caught(self):
        machine, checked = self.run_checked()
        inner = checked.memsys
        block = inner.directory.blocks()[0]
        entry = inner.directory.entry(block)
        # Point the owner field at a processor with no OWNED copy.
        entry.owner = machine.config.nprocs - 1
        inner.caches[entry.owner].invalidate_at(block, 0.0)
        checked.full_check(now=1e9)
        assert not checked.clean
        assert any(v.rule == "directory-owner" for v in checked.violations)

    @staticmethod
    def audit(kind, res, now=10.0, target=0):
        """One ``on_access`` of ``res`` issued at ``now``; the checker."""
        checked = InvariantChecker(_FakeMem())
        checked.on_access(0, kind, target, now, res, 0.0)
        return checked

    def test_completion_before_issue_caught(self):
        checked = self.audit("read", AccessResult(time=5.0))
        assert any(v.rule == "completion-before-issue" for v in checked.violations)

    def test_negative_stall_caught(self):
        checked = self.audit("read", AccessResult(time=20.0, read_stall=-3.0))
        assert any(v.rule == "negative-stall" for v in checked.violations)
        assert "read returned read_stall" in checked.violations[0].detail

    def test_stall_exceeding_latency_caught(self):
        checked = self.audit("write", AccessResult(time=11.0, write_stall=50.0))
        assert any(v.rule == "stall-exceeds-latency" for v in checked.violations)

    def test_duplicate_violations_deduplicated(self):
        checked = InvariantChecker(_FakeMem())
        res = AccessResult(time=20.0, read_stall=-3.0)
        for _ in range(5):
            checked.on_access(0, "read", 0, 10.0, res, 0.0)
        assert len(checked.violations) == 1
        assert checked.dropped == 4

    def test_non_blocking_read_audited_as_read(self):
        checked = self.audit("read_nb", AccessResult(time=5.0))
        assert "read completed at 5.0" in checked.violations[0].detail
        assert checked.checks_run == 1

    def test_flag_ops_not_audited(self):
        """Flag sets and waits never reach the memory system."""
        for kind in ("flag_set", "flag_wait"):
            checked = self.audit(kind, AccessResult(time=5.0), target=SyncPoint(kind, 0, 1))
            assert checked.clean
            assert checked.checks_run == 0

    def test_transparent_timing(self):
        def run(check):
            machine = Machine(MachineConfig(nprocs=2), "RCupd")
            arr = machine.shm.array(8, "a")
            if check:
                InvariantChecker.attach(machine)

            def worker(ctx):
                yield from arr.write(ctx.pid, ctx.pid)
                yield Compute(1000)
                yield from arr.read(1 - ctx.pid)

            return machine.run(worker).total_time

        assert run(False) == run(True)


class TestCheckedFixture:
    def test_fixture_attaches_and_audits(self, checked_machine):
        machine = Machine(MachineConfig(nprocs=2), "RCinv")
        arr = machine.shm.array(8, "a", align_line=True)
        checked_machine(machine)

        def worker(ctx):
            yield from arr.write(ctx.pid, ctx.pid)

        machine.run(worker)
        # teardown asserts the invariants held


class TestRunner:
    SMOKE = MachineConfig(nprocs=4)

    def test_racy_demo_flagged_end_to_end(self):
        outcome = execute_check(JobSpec(AppFactory("RacyDemo"), "RCinv", self.SMOKE))
        assert not outcome.clean
        assert outcome.races.total > 0
        assert any(r.array == "racy.data" for r in outcome.races.races)
        assert outcome.violation_total == 0

    def test_clean_app_end_to_end(self):
        spec = JobSpec(AppFactory("IS", n_keys=128, nbuckets=16), "RCupd", self.SMOKE)
        outcome = execute_check(spec)
        assert outcome.clean, outcome.describe()
        assert outcome.events > 0

    def test_cache_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = JobSpec(AppFactory("RacyDemo"), "RCinv", self.SMOKE)
        first = run_jobs([spec], jobs=1, cache=cache, executor=execute_check)
        second = run_jobs([spec], jobs=1, cache=cache, executor=execute_check)
        assert not first[0].cached
        assert second[0].cached
        assert second[0].races.total == first[0].races.total

    def test_spec_fingerprint_distinguishes(self):
        a = JobSpec(AppFactory("RacyDemo"), "RCinv", self.SMOKE)
        b = JobSpec(AppFactory("RacyDemo"), "RCupd", self.SMOKE)
        c = JobSpec(AppFactory("RacyDemo"), "RCinv", self.SMOKE, max_ops=7)
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3

    def test_spec_fingerprint_distinguishes_machine_size(self):
        """Cache entries at different P must never collide — the config
        (including nprocs) is part of the spec identity."""
        fps = {
            JobSpec(
                AppFactory("RacyDemo"), "RCinv", MachineConfig(nprocs=p)
            ).fingerprint()
            for p in (4, 5, 16, 64)
        }
        assert len(fps) == 4

    def test_check_runs_clean_at_odd_and_paper_scale_p(self):
        """Nothing in the checker stack assumes P=16 (or a power of two):
        vector clocks, barrier accumulators and flag epochs size off the
        config, and thread ids stay dense 0..P-1."""
        for p in (5, 64):
            spec = JobSpec(
                AppFactory("IS", n_keys=128, nbuckets=16),
                "RCinv",
                MachineConfig(nprocs=p),
            )
            outcome = execute_check(spec)
            assert outcome.clean, (p, outcome.describe())

    def test_checkers_subscribe_without_replacing_memsys(self):
        """Both checkers are engine observers: the engine keeps calling
        the machine's own memory system, and RacyDemo's race is found
        with no tracer attached."""
        app = AppFactory("RacyDemo")()
        machine = Machine(self.SMOKE, "RCinv")
        app.setup(machine)
        checker = InvariantChecker.attach(machine)
        detector = RaceDetector.attach(machine)
        assert machine.engine.memsys is machine.memsys
        assert machine.engine.observer.subscribers == [checker, detector]
        machine.run(app.worker)
        assert not any(
            isinstance(s, TracingMemory) for s in machine.engine.observer.subscribers
        )
        assert any(r.array == "racy.data" for r in detector.report.races)
        assert checker.checks_run > 0
        checker.final_check()
        assert checker.clean, checker.describe()


class TestCheckCLI:
    def test_racy_demo_exits_nonzero(self, capsys):
        code = main(
            ["--nprocs", "4", "check", "--app", "RacyDemo", "--systems", "RCinv", "--no-cache"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "racy.data" in out
        assert "unordered with" in out
        assert "FAIL" in out

    def test_racy_demo_on_default_systems_reports_instead_of_crashing(self, capsys):
        """On z-mc processor 0's own-slot write leaves ``data[0] == 0``;
        verify must accept that, so every system gets a report row."""
        code = main(["check", "--app", "RacyDemo", "--no-cache"])
        out = capsys.readouterr().out
        assert code == 1
        assert any(line.startswith("FAIL: ") for line in out.splitlines())
        assert any(line.split()[:2] == ["RacyDemo", "z-mc"] for line in out.splitlines())

    def test_clean_app_exits_zero(self, capsys):
        code = main(
            [
                "--nprocs", "4", "check", "--app", "IS", "--systems", "RCinv",
                "--scale", "smoke", "--no-cache",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "OK" in out

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["check", "--app", "NoSuchApp", "--no-cache"])

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            main(["check", "--app", "IS", "--systems", "bogus", "--no-cache"])
