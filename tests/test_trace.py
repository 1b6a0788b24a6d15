"""Access tracing facility."""

import pytest

from repro.config import MachineConfig
from repro.runtime import Lock, Machine
from repro.sim.trace import TracingMemory
from repro.sim.events import Compute


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
        _, tracer, _ = run_traced()
        for e in tracer.events_for_proc(1):
            assert e.proc == 1

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
        assert machine.engine.observer is tracer

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
