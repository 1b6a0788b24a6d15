"""RacyDemo: a deliberately mis-synchronised two-processor kernel.

The regression oracle for the race detector (``repro check --app
RacyDemo``): processors 0 and 1 both read-modify-write ``racy.data[0]``
with **no** synchronisation, and also keep a properly lock-protected
counter so the detector demonstrably separates the two.  It is *not*
part of the preset study set — its entire purpose is to be flagged.

The simulator's conservative scheduling serialises the unsynchronised
increments in simulated-time order, so the run itself is deterministic
and ``verify`` can still bound the result; on a real machine the same
labeling would be a bug, which is exactly what the paper's programming
model (properly-labeled release consistency) outlaws.
"""

from __future__ import annotations

from collections.abc import Generator

from ..runtime.context import AppContext, Machine
from ..runtime.primitives import Lock
from ..sim.events import Op
from .base import Application

#: Processors that hammer the shared word without synchronisation.
RACERS = 2


class RacyDemo(Application):
    name = "RacyDemo"

    def __init__(self, rounds: int = 4):
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        self.rounds = rounds

    def setup(self, machine: Machine) -> None:
        shm = machine.shm
        self.data = shm.array(RACERS, "racy.data", align_line=True)
        self.safe = shm.scalar("racy.safe")
        self.lock = Lock(machine.sync, "racy.lock")

    def worker(self, ctx: AppContext) -> Generator[Op, None, None]:
        if ctx.pid >= RACERS:
            return
        yield from ctx.phase("race-rounds")
        for _ in range(self.rounds):
            # The bug under test: an unsynchronised read-modify-write of
            # data[0] by both processors (racy), plus a write of one's
            # own data[pid] that the *other* processor then reads (also
            # racy, read/write this time).
            yield from self.data.add(0, 1)
            yield from self.data.write(ctx.pid, ctx.pid)
            yield from self.data.read(1 - ctx.pid)
            # The control: the same pattern under a lock is race-free.
            yield from self.lock.acquire()
            yield from self.safe.incr()
            yield from self.lock.release()
            yield from ctx.compute(10.0)

    def verify(self) -> None:
        total = self.safe.value()
        assert total == RACERS * self.rounds, (
            f"locked counter lost updates: {total} != {RACERS * self.rounds}"
        )
        # The racy counter is deterministic *in the simulator* (the
        # engine serialises accesses in simulated time) but would not be
        # on a real machine; only sanity-bound it.  Processor 0's
        # ``data.write(pid, pid)`` stores 0 into this same word, so 0 is
        # a value the kernel can leave (it does on z-mc).
        assert 0 <= self.data.peek(0) <= RACERS * self.rounds
