"""Sorted ready queue for the simulation scheduler.

The engine must resume threads in exact ``(time, arrival)`` order: the
smallest clock first, same-time entries in the order they were queued.
The engine queues exactly one entry per runnable thread, so the queue
never holds more than P entries, and a segment switch only ever removes
the front entry and inserts one more.

:class:`EventWheel` (named for the calendar queue it replaced) keeps two
parallel lists, :attr:`~EventWheel.times` and :attr:`~EventWheel.tids`,
sorted by time.  An insert goes after every equal time already queued
(``bisect_right``), which is exactly the arrival tie-break a heap of
``(time, seq, tid)`` entries gives — with no ``seq`` to store.  The front
entry is ``times[0]``/``tids[0]``, so the scheduler reads its run-ahead
horizon as ``times[0]`` and pops with ``list.pop(0)``.  For the tens to
hundreds of entries a machine has, these ``memmove``-backed C calls beat
heap tuples by a wide margin, and :meth:`Engine.run
<repro.sim.engine.Engine.run>` inlines them at every segment switch.

The order contract is pinned by Hypothesis property tests against a
plain ``heapq`` reference (``tests/test_event_wheel.py``).
"""

from __future__ import annotations

from bisect import bisect_right

_INF = float("inf")


class EventWheel:  # lint: hot
    """Ready queue of ``(time, tid)`` entries in exact ``(time, arrival)`` order."""

    __slots__ = ("times", "tids")

    def __init__(self) -> None:
        #: Entry times, ascending; equal times in arrival order.
        self.times: list[float] = []
        #: Thread id of each entry, parallel to :attr:`times`.
        self.tids: list[int] = []

    def push(self, time: float, tid: int) -> None:
        """Queue ``tid`` at ``time``, after every entry with an equal time."""
        times = self.times
        if not times or time >= times[-1]:
            times.append(time)
            self.tids.append(tid)
        else:
            self._push_slow(time, tid)

    def _push_slow(self, time: float, tid: int) -> None:
        """Insert before the tail (e.g. a wake for a long-blocked thread)."""
        i = bisect_right(self.times, time)
        self.times.insert(i, time)
        self.tids.insert(i, tid)

    def pop_and_peek(self) -> tuple[tuple[float, int] | None, float]:
        """Pop the front entry and report the next entry's time.

        Returns ``((time, tid), next_time)``; ``next_time`` is ``inf``
        when the popped entry was the last, and ``(None, inf)`` when the
        queue is empty.
        """
        times = self.times
        if not times:
            return None, _INF
        entry = (times.pop(0), self.tids.pop(0))
        return entry, times[0] if times else _INF

    def __len__(self) -> int:
        return len(self.times)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EventWheel(pending={len(self.times)})"
