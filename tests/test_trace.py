"""Access tracing facility."""

import hashlib
import json
from array import array

import pytest

from repro.config import MachineConfig
from repro.runtime import Barrier, DataChannel, Lock, Machine, fence, interleave
from repro.sim import trace
from repro.sim.events import Compute
from repro.sim.observer import Observer, subscribe
from repro.sim.stats import SyncPoint
from repro.sim.trace import TraceEvent, TracingMemory


def run_traced(system="RCinv", max_events=100_000):
    machine = Machine(MachineConfig(nprocs=2), system)
    arr = machine.shm.array(16, "a", align_line=True)
    lock = Lock(machine.sync)
    tracer = TracingMemory.attach(machine, max_events=max_events)

    def worker(ctx):
        if ctx.pid == 0:
            for i in range(16):
                yield from arr.write(i, i)
            yield from lock.acquire()
            yield from lock.release()
        else:
            yield Compute(50000)
            for i in range(16):
                yield from arr.read(i)

    result = machine.run(worker)
    return machine, tracer, result


class TestTracing:
    def test_events_recorded_with_kinds(self):
        _, tracer, _ = run_traced()
        kinds = {e.kind for e in tracer.events}
        assert {"read", "write", "release"} <= kinds

    def test_counts_match_engine_stats(self):
        _, tracer, result = run_traced()
        reads = [e for e in tracer.events if e.kind == "read"]
        writes = [e for e in tracer.events if e.kind == "write"]
        assert len(reads) == result.total_reads
        assert len(writes) == result.total_writes

    def test_latency_nonnegative_and_consistent(self):
        _, tracer, _ = run_traced()
        for e in tracer.events:
            assert e.latency >= 0
            assert e.complete >= e.issue

    def test_stall_totals_match_proc_stats(self):
        _, tracer, result = run_traced()
        traced = sum(e.read_stall for e in tracer.events)
        from_stats = sum(p.read_stall for p in result.procs)
        assert traced == pytest.approx(from_stats)

    def test_hottest_blocks_identify_shared_lines(self):
        _, tracer, _ = run_traced()
        hot = tracer.hottest_blocks(3)
        assert hot  # consumer misses stall on the written lines
        assert all(stall > 0 for _, stall in hot)

    def test_busiest_blocks(self):
        _, tracer, _ = run_traced()
        busy = tracer.busiest_blocks(2)
        assert busy[0][1] >= busy[-1][1]

    def test_events_for_proc(self):
        """The consumer's events are its sixteen reads, in issue order."""
        _, tracer, _ = run_traced()
        mine = [e for e in tracer.events if e.proc == 1]
        assert [(e.kind, e.addr) for e in mine] == [("read", 4 * i) for i in range(16)]
        assert [e.issue for e in mine] == sorted(e.issue for e in mine)

    def test_summary(self):
        _, tracer, _ = run_traced()
        s = tracer.summary()
        assert s["recorded"] == s["events"]
        assert 0 <= s["read_miss_rate"] <= 1
        assert s["total_stall"] > 0

    def test_bounded_events(self):
        _, tracer, _ = run_traced(max_events=5)
        assert len(tracer.events) == 5
        assert tracer.dropped > 0
        assert tracer.summary()["events"] == 5 + tracer.dropped

    def test_subscribes_to_engine_without_wrapping_memory(self):
        machine, tracer, _ = run_traced()
        assert machine.engine.memsys is machine.memsys
        # The engine's one subscriber is the event log the tracer folds.
        assert machine.engine.observer is tracer._log

    def test_invalid_max_events(self):
        with pytest.raises(ValueError):
            TracingMemory(32, max_events=0)

    def test_default_max_events_single_source(self):
        """attach() and __init__ both inherit DEFAULT_MAX_EVENTS."""
        machine = Machine(MachineConfig(nprocs=2), "RCinv")
        tracer = TracingMemory.attach(machine)
        assert tracer.max_events == TracingMemory.DEFAULT_MAX_EVENTS
        direct = TracingMemory(machine.memsys.line_size)
        assert direct.max_events == TracingMemory.DEFAULT_MAX_EVENTS
        explicit = TracingMemory(machine.memsys.line_size, max_events=7)
        assert explicit.max_events == 7

    def test_hottest_accessed_alias(self):
        _, tracer, _ = run_traced()
        assert tracer.hottest_accessed(3) == tracer.busiest_blocks(3)

    def test_perfetto_sidecar_carries_hot_blocks(self):
        from repro.obs.timeline import to_perfetto

        machine, tracer, result = run_traced()
        doc = to_perfetto(tracer, 2, total_time=result.total_time)
        other = doc["otherData"]
        assert other["hottest_blocks"] == tracer.hottest_blocks()
        assert other["hottest_accessed"] == tracer.hottest_accessed()
        # a bare event list gets no rankings (nothing to rank from)
        bare = to_perfetto(list(tracer.events), 2, total_time=result.total_time)
        assert "hottest_blocks" not in bare["otherData"]

    def test_results_unchanged_by_tracing(self):
        """Tracing must be observationally transparent."""
        def run(traced):
            machine = Machine(MachineConfig(nprocs=2), "RCupd")
            arr = machine.shm.array(8, "a")
            if traced:
                TracingMemory.attach(machine)

            def worker(ctx):
                yield from arr.write(ctx.pid, ctx.pid)
                yield Compute(1000)
                v = yield from arr.read(1 - ctx.pid)
                yield Compute(v + 1)

            return machine.run(worker).total_time

        assert run(False) == run(True)


#: Every field of every recorded event of :func:`run_mixed` with
#: ``max_events=MIXED_KEPT``, as recorded when each event was stored as
#: its own ``TraceEvent`` object on arrival.
MIXED_EVENTS_SHA256 = "850b08561006ca48c724166c12a3e95900dcaf045df57b3221d94faa7ed1d78c"
MIXED_TOTAL = 166
MIXED_KEPT = MIXED_TOTAL - 25
MIXED_SUMMARY = {
    "events": 166, "recorded": 141, "reads": 38, "writes": 76,
    "read_miss_rate": 0.23684210526315788, "write_miss_rate": 0.5,
    "total_stall": 4517.600000000006,
    "events_acquire": 4, "events_flag_set": 3, "events_flag_wait": 3,
    "events_phase": 8, "events_read": 38, "events_release": 9, "events_write": 76,
}
MIXED_PER_PROC = [34, 30, 25, 52]


def run_mixed(max_events=None):
    """Phase markers, a lock, barriers, channel flags and, on proc 3,
    non-blocking reads issued by two interleaved contexts."""
    machine = Machine(MachineConfig(nprocs=4), "RCinv")
    data = machine.shm.array(64, "data")
    total = machine.shm.scalar(name="total")
    lock = Lock(machine.sync)
    barrier = Barrier(machine.sync)
    chan = DataChannel(machine, 4, consumers=2)
    tracer = TracingMemory.attach(machine, max_events=max_events)

    def context(k):
        for i in range(k, 64, 4):
            v = yield from data.read(i)
            yield Compute(2 + v % 3)

    def worker(ctx):
        pid = ctx.pid
        yield from ctx.phase("fill")
        for i in range(pid, 64, 4):
            yield from data.write(i, i)
        yield from lock.acquire()
        v = yield from total.read(0)
        yield from total.write(0, v + pid)
        yield from lock.release()
        yield from barrier.wait()
        yield from ctx.phase("exchange")
        if pid == 0:
            for e in range(2):
                yield from chan.produce([e, e + 1, e + 2, e + 3])
        elif pid in (1, 2):
            for e in (1, 2):
                yield from chan.consume(e, pid - 1)
        else:
            yield from interleave([context(0), context(1)])
        yield from barrier.wait()
        yield from ctx.phase("tail")
        yield Compute(10)

    machine.run(worker)
    return tracer


def _rows(events):
    return [
        [e.kind, e.proc, e.addr, e.issue, e.complete, e.read_stall, e.write_stall,
         e.buffer_flush, e.hit, e.sync_kind, e.sync_id, e.episode, e.label]
        for e in events
    ]


def test_stored_events_read_back_field_for_field():
    """Every field of every kept event, the drop count, the summary and
    the per-processor event counts are those pinned above."""
    assert run_mixed().dropped == 0
    assert len(run_mixed().events) == MIXED_TOTAL
    tracer = run_mixed(max_events=MIXED_KEPT)
    rows = _rows(tracer.events)
    kinds = {row[0] for row in rows}
    assert {"phase", "read", "write", "acquire", "release", "flag_set", "flag_wait"} <= kinds
    assert {"lock", "barrier", "flag_set", "flag_wait"} <= {row[9] for row in rows}
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == MIXED_EVENTS_SHA256
    assert tracer.dropped == MIXED_TOTAL - MIXED_KEPT
    assert tracer.summary() == MIXED_SUMMARY
    assert [sum(row[1] == proc for row in rows) for proc in range(4)] == MIXED_PER_PROC


#: ``[hottest_blocks(50), busiest_blocks(50)]`` of :func:`run_mixed`, as
#: recorded when every access updated the block tallies on arrival.
MIXED_RANKINGS_SHA256 = "45b2749f327021411577c9dcaf05b7cafb7e720ec3d3d0db7a6b1a435c7706f3"


@pytest.mark.parametrize("max_events", [None, MIXED_KEPT, 60, 1])
def test_block_rankings_count_recorded_and_dropped_accesses(max_events):
    """Rankings cover every data access however many were dropped, and
    asking twice changes nothing."""
    tracer = run_mixed(max_events=max_events)
    first = [tracer.hottest_blocks(50), tracer.busiest_blocks(50)]
    assert [tracer.hottest_blocks(50), tracer.busiest_blocks(50)] == first
    digest = hashlib.sha256(json.dumps(first).encode()).hexdigest()
    assert digest == MIXED_RANKINGS_SHA256


def test_rankings_asked_mid_run_match_rankings_asked_at_the_end():
    """A ranking asked for before, at and after the first dropped access
    leaves the final tallies as they would have been."""
    from repro.sim.stats import AccessResult

    accesses = [(p, 4 * ((7 * i) % 11), float(i % 3)) for i, p in enumerate([0, 1, 2] * 6)]

    def feed(tracer, ask_at=()):
        for i, (proc, addr, stall) in enumerate(accesses):
            if i in ask_at:
                tracer.hottest_blocks(3)
            res = AccessResult(float(i) + 1.0 + stall, read_stall=stall, hit=not stall)
            tracer.on_access(proc, "read", addr, float(i), res, 1.0)
        return [tracer.hottest_blocks(20), tracer.busiest_blocks(20), tracer.dropped]

    quiet = feed(TracingMemory(4, max_events=7))
    assert quiet[2] == len(accesses) - 7
    assert feed(TracingMemory(4, max_events=7), ask_at=(2, 7, 8, 12)) == quiet
    assert feed(TracingMemory(4, max_events=100), ask_at=(3, 9))[:2] == quiet[:2]


class _Recorder(Observer):
    """The events a tracer should rebuild, from the callbacks' own
    arguments, with the raw access kinds beside them."""

    def __init__(self):
        self.events, self.kinds = [], []

    def on_access(self, proc, kind, target, issue, res, busy):
        self.kinds.append(kind)
        times = (issue, res.time, res.read_stall, res.write_stall, res.buffer_flush, res.hit)
        if target.__class__ is SyncPoint:
            event = TraceEvent(kind, proc, None, *times, *target)
        else:
            event = TraceEvent("read" if kind == "read_nb" else kind, proc, target, *times)
        self.events.append(event)

    def on_phase(self, proc, time, label):
        self.kinds.append("phase")
        times = (time, time, 0.0, 0.0, 0.0, True)
        self.events.append(TraceEvent("phase", proc, None, *times, label=label))


def run_every_kind(max_events):
    """Phases, a lock, barriers, channel flags, fences and non-blocking
    reads, traced and recorded side by side."""
    machine = Machine(MachineConfig(nprocs=4), "RCinv")
    data = machine.shm.array(32, "data")
    lock = Lock(machine.sync)
    barrier = Barrier(machine.sync)
    chan = DataChannel(machine, 2, consumers=1)
    recorder = _Recorder()
    tracer = TracingMemory.attach(machine, max_events=max_events)
    subscribe(machine.engine, recorder)

    def context(k):
        for i in range(k, 32, 4):
            yield from data.read(i)
            yield Compute(3)

    def worker(ctx):
        pid = ctx.pid
        for round_ in range(3):
            yield from ctx.phase(f"round{round_}")
            for i in range(pid, 32, 4):
                yield from data.write(i, i + round_)
            yield from fence()
            yield from lock.acquire()
            yield from data.read(0)
            yield from lock.release()
            if pid == 0:
                yield from chan.produce([round_, round_ + 1])
            elif pid == 1:
                yield from chan.consume(round_ + 1, 0)
            elif pid == 3:
                yield from interleave([context(0), context(1)])
            yield from barrier.wait()

    machine.run(worker)
    return tracer, recorder


@pytest.mark.parametrize("chunk", [None, 7])
def test_kept_rows_are_typed_and_bounded(chunk, monkeypatch):
    """A trace that fills ``max_events`` mid-chunk keeps each row in
    typed columns of at most 64 bytes, and rebuilds every kept event
    with the original values and Python types."""
    if chunk is not None:
        monkeypatch.setattr(trace, "_CHUNK", chunk)
    total = len(run_every_kind(None)[1].events)
    max_events = total - 40
    assert max_events % trace._CHUNK and total > max_events
    tracer, recorder = run_every_kind(max_events)
    assert tracer.dropped == total - max_events

    store = (*tracer._columns, *tracer._sync)
    assert all(isinstance(column, array) for column in store)
    assert {len(column) for column in tracer._columns} == {max_events}
    held = sum(column.itemsize * len(column) for column in store) + 8 * len(tracer._labels)
    assert held <= 64 * max_events

    events, want = tracer.events, recorder.events[:max_events]
    assert events == want
    assert json.dumps(_rows(events)) == json.dumps(_rows(want))
    for e in events:
        assert type(e.hit) is bool
        assert e.addr is None or type(e.addr) is int
        times = (e.issue, e.complete, e.read_stall, e.write_stall, e.buffer_flush)
        assert all(type(t) is float for t in times)
    kept = set(recorder.kinds[:max_events])
    assert {"read_nb", "phase", "acquire", "release", "flag_set", "flag_wait"} <= kept
    assert {"lock", "barrier", "flag_set", "flag_wait", "fence"} <= {e.sync_kind for e in events}
