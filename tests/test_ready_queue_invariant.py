"""One ready-queue entry per runnable thread, through every wake path.

The production loop (:meth:`repro.sim.engine.Engine.run`) takes a
resumed thread's clock from its popped ready-queue entry and never
checks it for staleness.  That is sound only if ``spawn``, ``wake`` (of
a blocked thread) and the segment switch each queue a thread once, and
a blocked or finished thread has no entry.  These runs drive the three
wake paths (lock hand-off, barrier release, flag set) at P=16 and check
both halves of the contract:

* the plain-heapq :class:`repro.sim.reference.ReferenceEngine`, which
  raises on any stale entry it pops, reaches the same outcome;
* an observer that inspects the production queue on every callback
  never sees a duplicate tid, a queued blocked or finished thread, the
  calling thread itself, or unsorted ``times``.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from repro.apps.factory import AppFactory
from repro.config import MachineConfig
from repro.runtime import Barrier, DataChannel, Machine
from repro.sim.events import Compute
from repro.sim.observer import Observer, subscribe
from repro.sim.reference import capture_outcome, use_reference_engine

P = 16


class QueueInvariant(Observer):
    """Checks the engine's ready queue at every observer callback."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.checks = 0

    def _check(self, proc: int, *_args) -> None:
        times, tids = self.engine._queue.times, self.engine._queue.tids
        assert len(set(tids)) == len(tids), f"tid queued twice: {tids}"
        assert proc not in tids, f"running or waking thread {proc} already queued"
        assert times == sorted(times), f"unsorted ready queue: {times}"
        for tid in tids:
            thread = self.engine._threads[tid]
            assert not thread.blocked, f"blocked thread {tid} queued"
            assert not thread.done, f"finished thread {tid} queued"
        self.checks += 1

    on_busy = on_access = on_stall = on_sync_wait = on_phase = _check


def _app(name: str, **kwargs):
    def build(machine: Machine):
        app = AppFactory(name, **kwargs)()
        app.setup(machine)
        return app.worker, app.verify

    return build


def _pipeline(machine: Machine):
    """Flag producer/consumer: one producer, P-1 consumers, a two-slot
    ring (consumers' acks hold the producer back), then a barrier."""
    epochs, nwords = 6, 4
    chan = DataChannel(machine, nwords=nwords, consumers=P - 1, depth=2)
    barrier = Barrier(machine.sync)
    seen: list[list] = []

    def worker(ctx):
        if ctx.pid == 0:
            for e in range(epochs):
                yield Compute(150.0)
                yield from chan.produce([e * 100 + i for i in range(nwords)])
        else:
            reader = chan.reader()
            for _ in range(epochs):
                seen.append((yield from reader.next()))
                yield Compute(40.0 * ctx.pid)
        yield from barrier.wait()

    def verify():
        assert len(seen) == (P - 1) * epochs

    return worker, verify


PROGRAMS = {
    # Many vertex locks contended by 16 processors on a small graph.
    "maxflow-locks": _app("Maxflow", n=24, extra_edges=40, seed=0),
    "cholesky-taskpool": _app("Cholesky", grid=(8, 8)),
    "flag-pipeline": _pipeline,
}

#: The SyncManager methods whose wakes each program must drive.
WAKE_PATHS = {
    "maxflow-locks": {"release"},
    "cholesky-taskpool": {"release"},
    "flag-pipeline": {"flag_set", "barrier_wait"},
}


def _run(build, system: str, engine: str):
    machine = Machine(MachineConfig(nprocs=P), system)
    if engine == "reference":
        use_reference_engine(machine)
    worker, verify = build(machine)
    checker = wakes = None
    if engine == "wheel":
        checker = subscribe(machine.engine, QueueInvariant(machine.engine))
        wake = machine.engine.wake
        wakes = Counter()

        def counting_wake(tid, grant_time):
            # Keyed by the SyncManager method that woke the thread.
            wakes[sys._getframe(1).f_code.co_name] += 1
            wake(tid, grant_time)

        machine.engine.wake = counting_wake
    result = machine.run(worker)
    verify()
    return capture_outcome(machine, result), result, checker, wakes


@pytest.mark.parametrize("system", ["RCinv", "z-mc"])
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_one_entry_per_runnable_thread(program, system):
    build = PROGRAMS[program]
    outcome, result, checker, wakes = _run(build, system, "wheel")
    ref_outcome, _, _, _ = _run(build, system, "reference")
    assert outcome == ref_outcome
    assert checker.checks > result.ops // 2
    assert WAKE_PATHS[program] <= set(wakes), f"wakes by path: {dict(wakes)}"


def test_reference_engine_raises_on_stale_entry():
    machine = Machine(MachineConfig(nprocs=2), "RCinv")
    ref = use_reference_engine(machine)

    def worker(ctx):
        yield Compute(5.0)

    for pid in range(2):
        ref.spawn(pid, worker(None))
    # A second entry for thread 0: after its first segment ends, this
    # one is stale.
    ref._push(ref._threads[0])
    with pytest.raises(RuntimeError, match="stale ready entry"):
        ref.run()
