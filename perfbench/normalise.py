"""Host-speed normaliser: a fixed pure-Python reference kernel.

The host this benchmark runs on changes speed by tens of percent within
a single process (a fixed 20k-iteration loop was seen to take 10 to
24 ms), so raw wall time of a simulation cell is not repeatable.  Every
timed cell is therefore bracketed by this kernel and its time is scaled
by ``NOMINAL_NS / kernel_ns``: a host running slow makes the kernel slow
by the same factor, and the factor cancels.

The kernel must never change and must not import repository code, so
no change to the simulator can speed it up.  It exercises what the
simulator's hot loop does: heap pops and pushes of ``(time, seq, tid)``
tuples, generator ``send``, attribute access on a slotted object, dict
upserts and float arithmetic.
"""

from __future__ import annotations

from heapq import heappop, heappush
from statistics import median
from time import perf_counter_ns

#: Loop iterations of one kernel repetition (about 0.6 ms on a 2-CPU
#: x86-64 cloud host with CPython 3.10).
ITERATIONS = 1000

#: Repetitions per bracket; the fastest is kept, which drops a
#: repetition hit by an interrupt without hiding a host that is slow
#: for the whole bracket.
REPS = 3

#: Kernel time, in ns, that defines one normalised nanosecond.  Chosen
#: close to the kernel's time on the host above, so normalised seconds
#: read like wall seconds there.
NOMINAL_NS = 600_000


class _Proc:
    __slots__ = ("clock", "ops")

    def __init__(self) -> None:
        self.clock = 0.0
        self.ops = 0


def _ticker():
    total = 0.0
    while True:
        now = yield total
        total += now * 0.25


def kernel_once(n: int = ITERATIONS) -> float:
    """Run the reference kernel once; returns a checksum."""
    procs = [_Proc() for _ in range(8)]
    heap = [(0.0, i, i) for i in range(8)]
    table: dict[tuple[int, int], int] = {}
    gen = _ticker()
    next(gen)
    seq = 8
    acc = 0.0
    for i in range(n):
        t, _s, tid = heappop(heap)
        proc = procs[tid]
        proc.ops += 1
        acc += gen.send(t)
        key = (tid, i & 63)
        table[key] = table.get(key, 0) + 1
        proc.clock = t + 1.0 + (i % 7) * 0.5
        seq += 1
        heappush(heap, (proc.clock, seq, tid))
    return acc + len(table)


def kernel_ns() -> int:
    """Fastest of :data:`REPS` timed kernel repetitions, in ns."""
    best = None
    for _ in range(REPS):
        t0 = perf_counter_ns()
        kernel_once()
        dt = perf_counter_ns() - t0
        if best is None or dt < best:
            best = dt
    return best


class Normaliser:
    """Scales host times by the kernel measured around them.

    Call :meth:`mark` immediately before and after every timed region;
    :meth:`factor` of the two marks converts the region's host seconds
    to normalised seconds.  Every kernel time is kept so a run can print
    the kernel's spread.
    """

    def __init__(self) -> None:
        self.samples: list[int] = []

    def mark(self) -> int:
        k = kernel_ns()
        self.samples.append(k)
        return k

    @staticmethod
    def factor(before: int, after: int) -> float:
        """Normalised seconds per host second between two marks."""
        return NOMINAL_NS * 2.0 / (before + after)

    def summary(self) -> tuple[float, float, float]:
        """Kernel (min, median, max) in ms over every mark so far."""
        if not self.samples:
            return (0.0, 0.0, 0.0)
        s = self.samples
        return (min(s) / 1e6, median(s) / 1e6, max(s) / 1e6)
