"""Settled reads: the engine's own charge of z-machine reads at or past
the settled horizon must be the charge ``ZMachine.read`` would make.

A memory system that declares ``settled_horizon``
(:class:`repro.sim.engine.MemorySystemProtocol`) lets
:meth:`repro.sim.engine.Engine.run` answer reads issued at or after it
without calling ``read``; :class:`repro.sim.reference.ReferenceEngine`
always calls ``read``.  Each run below goes through both engines with a
recording observer attached, and the two observer streams and outcomes
must be identical.
"""

from __future__ import annotations

import json

import pytest

from repro.apps.base import run_machine
from repro.apps.presets import preset
from repro.config import MachineConfig
from repro.runtime.context import Machine
from repro.scenarios.inject import Degradation
from repro.sim.events import Compute, Fence, Read, ReadNB, Write
from repro.sim.observer import Observer, subscribe
from repro.sim.reference import capture_outcome, use_reference_engine

P = 16

DEGRADED = Degradation(
    node_cpu=((3, 2.5), (10, 1.25)),
    burst_period=50.0,
    burst_duty=0.3,
    burst_factor=1.7,
    burst_phase=10.0,  # processor 2 starts outside its burst
)


class Recorder(Observer):
    """Every callback, with the fields of ``res`` read inside the call
    (memory systems reuse their result objects)."""

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def on_busy(self, proc, start, cycles):
        self.events.append(("busy", proc, start, cycles))

    def on_access(self, proc, kind, target, issue, res, busy):
        self.events.append(
            ("access", proc, kind, target, issue, res.time, res.hit, res.read_stall, busy)
        )

    def on_stall(self, proc, start, cycles, category):
        self.events.append(("stall", proc, start, cycles, category))

    def on_sync_wait(self, proc, start, cycles):
        self.events.append(("wait", proc, start, cycles))

    def on_phase(self, proc, time, label):
        self.events.append(("phase", proc, time, label))


def _count_read_calls(machine: Machine) -> list[int]:
    """Count the calls that reach the memory system's ``read``."""
    calls = [0]
    inner = machine.memsys.read

    def read(proc, addr, now):
        calls[0] += 1
        return inner(proc, addr, now)

    machine.memsys.read = read
    return calls


def _run(machine: Machine, worker, reference: bool):
    """Run ``worker`` with a recorder; (recorder, outcome, read calls, reads)."""
    if reference:
        use_reference_engine(machine)
    calls = _count_read_calls(machine)
    rec = subscribe(machine.engine, Recorder())
    result = machine.run(worker)
    reads = sum(p.reads for p in result.procs)
    return rec, capture_outcome(machine, result), calls[0], reads


def _staged_worker(arr, latency: float):
    """Reads before, at and past the horizon on a P=16 z-machine.

    At t=0 the ``p % 4 == 0`` processors write (``avail_time`` L) and at
    t=0.5 the ``p % 4 == 1`` ones (L + 0.5, the horizon).  The
    ``p % 4 == 2`` ones read a t=0 block at exactly its ``avail_time``,
    still before the horizon; the ``p % 4 == 3`` ones stall on a block
    in flight and then issue a ``ReadNB`` past the horizon.  Rounds of
    staggered writes and reads follow once every staged read is done.
    """
    a = arr.addr

    def worker(ctx):
        p = ctx.pid
        kind = p % 4
        if kind == 0:
            yield Write(a(p))
        elif kind == 1:
            yield Compute(0.5)
            yield Write(a(p))
        elif kind == 2:
            yield Compute(latency)
            yield Read(a(p - 2))  # at exactly avail_time, before the horizon
            yield Read(a(p - 1))  # past the horizon
        else:
            yield Read(a(p - 2))  # block not written yet
            yield Read(a(p - 3))  # in flight: stalls
            yield ReadNB(a(p - 1))
        yield Compute(4 * latency)
        for rnd in range(6):
            yield Compute(1.0 + 0.7 * ((p + rnd) % 5))
            if (p + rnd) % 3 == 0:
                yield Write(a(p))
            yield Read(a((p + 5 + rnd) % P))
            yield Compute(2.0)
            yield Read(a((p + 7) % P))
            if rnd % 2:
                yield ReadNB(a((p + 3) % P))
                yield Fence()
            yield Read(a(p))

    return worker


def _staged_machine(config: MachineConfig) -> tuple[Machine, object]:
    machine = Machine(config, "z-mc")
    arr = machine.shm.array(P, "z")
    return machine, _staged_worker(arr, machine.memsys.latency)


@pytest.mark.parametrize("degraded", [False, True], ids=["plain", "cpu-degraded"])
def test_staged_reads_match_reference(degraded):
    config = MachineConfig(nprocs=P, degradation=DEGRADED if degraded else None)
    runs = []
    for reference in (False, True):
        machine, worker = _staged_machine(config)
        runs.append(_run(machine, worker, reference))
    (rec, out, calls, reads), (ref_rec, ref_out, ref_calls, ref_reads) = runs
    assert rec.events == ref_rec.events
    assert json.dumps(out, sort_keys=True) == json.dumps(ref_out, sort_keys=True)
    # The reference calls ``read`` for every read, the engine only for
    # those before the horizon: both kinds occurred.
    assert ref_calls == ref_reads == reads
    assert 0 < calls < reads
    reads_seen = [e for e in rec.events if e[0] == "access" and e[2] == "read"]
    assert any(e[7] > 0.0 for e in reads_seen), "no read stalled"
    # Processor 2's first read is issued at exactly the avail_time of
    # processor 0's block, before the horizon, and does not stall.
    first = next(e for e in reads_seen if e[1] == 2)
    latency = machine.memsys.latency
    assert first[4] == latency and first[6] and first[7] == 0.0
    assert machine.memsys.directory.peek(0) is not None
    assert any(e[2] == "read_nb" for e in rec.events)


@pytest.mark.parametrize("name", ["Cholesky", "IS", "Maxflow", "Nbody"])
def test_smoke_apps_match_reference(name):
    app_factory = preset("smoke")[name][0]
    config = MachineConfig(nprocs=P)
    streams, outcomes, counts = [], [], []
    for reference in (False, True):
        hooks = (use_reference_engine,) if reference else ()
        recorders: list[Recorder] = []
        calls: list[list[int]] = []

        def attach(machine, recorders=recorders, calls=calls):
            calls.append(_count_read_calls(machine))
            recorders.append(subscribe(machine.engine, Recorder()))

        machine, result, *_ = run_machine(app_factory(), "z-mc", config, attach=(*hooks, attach))
        streams.append(recorders[0].events)
        outcomes.append(json.dumps(capture_outcome(machine, result), sort_keys=True))
        counts.append((calls[0][0], sum(p.reads for p in result.procs)))
    assert streams[0] == streams[1]
    assert outcomes[0] == outcomes[1]
    (calls, reads), (ref_calls, ref_reads) = counts
    assert ref_calls == ref_reads == reads
    assert calls < reads
