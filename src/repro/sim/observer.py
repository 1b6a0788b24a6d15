"""Engine observers: the one channel through which a run is watched.

Both scheduler loops (:meth:`repro.sim.engine.Engine.run` and
:class:`repro.sim.reference.ReferenceEngine`) report to
``engine.observer`` through five callbacks, with the cycles the engine
actually charged, so a subscriber can reproduce the
:class:`~repro.sim.stats.SimResult` totals exactly:

``on_busy(proc, start, cycles)``
    Compute, ``ReadNB`` issue, flag publication and self-invalidation
    cycles charged as busy.
``on_access(proc, kind, target, issue, res, busy)``
    One memory-system outcome.  ``kind`` is ``"read"``, ``"write"``,
    ``"read_nb"`` (a non-blocking read: the engine charges none of
    ``res``, only the issue cycles reported through ``on_busy``),
    ``"acquire"``, ``"release"`` (also barriers and fences),
    ``"flag_set"`` or ``"flag_wait"``.  ``target`` is the address of a
    data access or the :class:`~repro.sim.stats.SyncPoint` of a sync
    op; ``res`` is the memory system's result (flag ops, which never
    reach it, get a zero-cost hit completing at ``issue``) and ``busy``
    the cycles of it charged as busy.  Read ``res`` inside the call:
    memory systems reuse result objects.
``on_stall(proc, start, cycles, category)``
    A :class:`~repro.sim.events.Stall` op (latency the application
    charges itself).
``on_sync_wait(proc, start, cycles)``
    Time blocked on a lock, barrier or flag.
``on_phase(proc, time, label)``
    An application phase marker.

Zero-cycle busy, stall and sync-wait spans are not reported; every
memory-system outcome is.  With no observer attached the engine pays
one ``None`` check per op.  :func:`subscribe` attaches a subscriber;
with more than one, ``engine.observer`` is a :class:`FanOut` whose
callbacks are settable attributes, like a single subscriber's.
:func:`shared` finds or attaches the one subscriber of a class that
several attaches share: the tracer, interval metrics and attribution
all fold the rows of one :class:`repro.sim.trace.EventLog`.
"""

from __future__ import annotations

from typing import TypeVar

#: The engine-observer callback names.
CALLBACKS = ("on_busy", "on_access", "on_stall", "on_sync_wait", "on_phase")


class Observer:
    """No-op base: a subscriber overrides the callbacks it needs."""

    def on_busy(self, proc: int, start: float, cycles: float) -> None:
        pass

    def on_access(self, proc: int, kind: str, target, issue: float, res, busy: float) -> None:
        pass

    def on_stall(self, proc: int, start: float, cycles: float, category: str) -> None:
        pass

    def on_sync_wait(self, proc: int, start: float, cycles: float) -> None:
        pass

    def on_phase(self, proc: int, time: float, label: str) -> None:
        pass


def _fan(handlers: list):
    """One callable calling every handler in order."""
    if len(handlers) == 1:
        return handlers[0]

    def fan(*args) -> None:
        for handler in handlers:
            handler(*args)

    return fan


class FanOut(Observer):
    """Forwards each callback to every subscriber that overrides it."""

    def __init__(self, *subscribers: Observer):
        self.subscribers: list[Observer] = []
        for subscriber in subscribers:
            self.add(subscriber)

    def add(self, subscriber: Observer) -> None:
        self.subscribers.append(subscriber)
        for name in CALLBACKS:
            noop = getattr(Observer, name)
            handlers = [
                getattr(s, name) for s in self.subscribers
                if getattr(type(s), name, None) is not noop
            ]
            if handlers:
                setattr(self, name, _fan(handlers))


def subscribe(engine, subscriber: Observer) -> Observer:
    """Attach ``subscriber`` to ``engine`` next to any already attached."""
    current = engine.observer
    if current is None:
        engine.observer = subscriber
    elif isinstance(current, FanOut):
        current.add(subscriber)
    else:
        engine.observer = FanOut(current, subscriber)
    return subscriber


S = TypeVar("S", bound=Observer)


def shared(engine, cls: type[S]) -> S:
    """The subscriber of class ``cls`` attached to ``engine``, subscribing
    a new one when there is none."""
    current = engine.observer
    for subscriber in current.subscribers if isinstance(current, FanOut) else (current,):
        if isinstance(subscriber, cls):
            return subscriber
    made = cls()
    subscribe(engine, made)
    return made
