"""Traced-run wrappers: host time spent in each simulator layer.

The traced run times the calls into each layer's public entry points
from wrappers installed on one freshly built machine, so the simulator
sources stay untouched.  The wrappers must not change the program:

* ``Engine.run`` binds ``memsys.read``/``write`` and
  ``queue.pop_and_peek`` into locals when it starts, so every wrapper is
  installed before ``machine.run`` and as an attribute of the instance
  the engine already holds.  The memory system is never replaced by a
  proxy: that would hide its ``_hit_result`` flyweight and switch off
  the engine's stall-free-hit fast path.
* The event wheel has ``__slots__``, so it cannot take instance
  attributes; its class is swapped for a layout-identical subclass
  whose methods are wrapped.
* Worker generators are wrapped in an object whose ``send`` is timed.

Each call is a span: an id, its parent (the span that was open when it
started), the cell it belongs to, its layer, start and end.  A layer's
self time is its spans' duration minus the part their child spans
cover.  Each wrapper also times its own bookkeeping and leaves it out
of both the child's and the parent's self time, so tracing cost does
not land in the engine's self time.  Spans stay in memory (the first
:data:`MAX_SPANS` of a run; the per-layer sums cover every call) and
are written out when the run ends.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter_ns

from repro.sim.wheel import EventWheel

#: Layers in report order; a span's layer is an index into this tuple.
LAYERS = (
    "workloads",
    "runtime.machine",
    "sim.engine",
    "sim.wheel",
    "apps",
    "mem",
    "network",
    "runtime.sync",
    "obs",
)
_INDEX = {name: i for i, name in enumerate(LAYERS)}

#: Entry points per layer.
MEM_METHODS = ("read", "write", "acquire", "release", "publish", "self_invalidate")
NETWORK_METHODS = ("transfer", "fanout", "multicast")
SYNC_METHODS = ("acquire", "release", "barrier_wait", "flag_set", "flag_wait")
WHEEL_METHODS = ("push", "_push_slow", "pop_and_peek")
#: Engine-observer callbacks; the engine calls them on whatever object
#: sits in ``engine.observer``, so they count as observer work.
OBSERVER_METHODS = ("on_busy", "on_access", "on_stall", "on_sync_wait", "on_phase")

#: Raw spans kept per run.  One cell makes hundreds of thousands of
#: calls; the per-layer sums do not depend on this bound.
MAX_SPANS = 100_000

#: Layer index of a cell's root span in the written span list.
CELL_LAYER = -1


class NullProbe:
    """The untraced run: calls through, installs nothing."""

    def begin_cell(self, name: str) -> None:
        pass

    def end_cell(self) -> None:
        return None

    def call(self, layer: str, fn, *args):
        return fn(*args)

    def instrument(self, machine) -> None:
        pass

    def instrument_observers(self, machine) -> None:
        pass

    def worker(self, worker):
        return worker


class _TracedGen:
    """A worker generator whose ``send`` is a traced call."""

    __slots__ = ("send",)

    def __init__(self, send) -> None:
        self.send = send


class CellTrace:
    """Per-layer totals of one traced cell execution."""

    __slots__ = ("self_ns", "calls", "fast", "accesses")

    def __init__(self, self_ns: list[int], calls: list[int], fast: int, accesses: int):
        self.self_ns = dict(zip(LAYERS, self_ns))
        self.calls = dict(zip(LAYERS, calls))
        #: read/write calls that returned the memory system's
        #: stall-free ``_hit_result`` flyweight, out of ``accesses``.
        self.fast = fast
        self.accesses = accesses


class SpanRecorder:
    """Records spans at the layer boundaries of the machines it instruments."""

    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        self.max_spans = max_spans
        #: (span id, parent id, cell index, layer index, start ns, end ns)
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.cells: list[str] = []
        # Per-cell accumulators, zeroed in place so the wrappers' closures
        # keep pointing at live lists.
        self._self_ns = [0] * len(LAYERS)
        self._calls = [0] * len(LAYERS)
        self._fast = [0, 0]  # [flyweight hits, read/write calls]
        self._next_id = [0]
        self._cell = [-1]
        #: Open spans: [span id, ns covered by finished children].
        self._stack: list[list[int]] = []
        self._cell_t0 = 0
        self._wheel_cls: type | None = None

    # -- cells -----------------------------------------------------------
    def begin_cell(self, name: str) -> None:
        self.cells.append(name)
        self._cell[0] = len(self.cells) - 1
        self._self_ns[:] = [0] * len(LAYERS)
        self._calls[:] = [0] * len(LAYERS)
        self._fast[:] = [0, 0]
        self._next_id[0] += 1
        self._stack[:] = [[self._next_id[0], 0]]
        self._cell_t0 = perf_counter_ns()

    def end_cell(self) -> CellTrace:
        if len(self.spans) < self.max_spans:
            root = self._stack[0][0]
            self.spans.append((root, 0, self._cell[0], CELL_LAYER,
                               self._cell_t0, perf_counter_ns()))
        return CellTrace(self._self_ns, self._calls, self._fast[0], self._fast[1])

    # -- wrappers --------------------------------------------------------
    def wrap(self, layer: str, fn, hit: object = None):
        """``fn`` timed as a span of ``layer``.

        With ``hit`` set, results that are that object are counted as
        fast-path outcomes of a data access.
        """
        i = _INDEX[layer]
        stack, spans, cap = self._stack, self.spans, self.max_spans
        self_ns, calls, fast = self._self_ns, self._calls, self._fast
        next_id, cell = self._next_id, self._cell
        pcn = perf_counter_ns
        track_hits = hit is not None

        def traced(*args, **kwargs):
            t_in = pcn()
            next_id[0] = sid = next_id[0] + 1
            frame = [sid, 0]
            parent = stack[-1]
            stack.append(frame)
            t0 = pcn()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = pcn()
                stack.pop()
                self_ns[i] += t1 - t0 - frame[1]
                calls[i] += 1
                if len(spans) < cap:
                    spans.append((sid, parent[0], cell[0], i, t0, t1))
                parent[1] += pcn() - t_in
            if track_hits:
                fast[1] += 1
                if res is hit:
                    fast[0] += 1
            return res

        return traced

    def call(self, layer: str, fn, *args):
        return self.wrap(layer, fn)(*args)

    # -- installation ----------------------------------------------------
    def instrument(self, machine) -> None:
        """Wrap the engine, wheel, memory system, network and sync of ``machine``.

        Runs after ``app.setup`` and before any observer is attached, so
        decorators that bind the memory system's methods bind the
        wrapped ones.
        """
        engine = machine.engine
        engine.run = self.wrap("sim.engine", engine.run)
        engine._queue.__class__ = self._traced_wheel()
        mem = engine.memsys
        hit = getattr(mem, "_hit_result", None)
        for name in MEM_METHODS:
            fn = getattr(mem, name, None)
            if fn is not None:
                setattr(mem, name, self.wrap("mem", fn, hit if name in ("read", "write") else None))
        for name in NETWORK_METHODS:
            setattr(machine.network, name, self.wrap("network", getattr(machine.network, name)))
        for name in SYNC_METHODS:
            setattr(machine.sync, name, self.wrap("runtime.sync", getattr(machine.sync, name)))

    def instrument_observers(self, machine) -> None:
        """Wrap the entry points the outermost decorator defines itself,
        and the engine-observer callbacks."""
        outer = machine.engine.memsys
        for name in MEM_METHODS:
            if name in outer.__dict__ or name in type(outer).__dict__:
                setattr(outer, name, self.wrap("obs", getattr(outer, name)))
        observer = machine.engine.observer
        if observer is not None:
            for name in OBSERVER_METHODS:
                setattr(observer, name, self.wrap("obs", getattr(observer, name)))

    def worker(self, worker):
        wrap = self.wrap

        def traced_worker(ctx):
            return _TracedGen(wrap("apps", worker(ctx).send))

        return traced_worker

    def _traced_wheel(self) -> type:
        if self._wheel_cls is None:
            wrapped = {name: self.wrap("sim.wheel", getattr(EventWheel, name))
                       for name in WHEEL_METHODS}
            self._wheel_cls = type("TracedEventWheel", (EventWheel,),
                                   {"__slots__": (), **wrapped})
        return self._wheel_cls

    # -- output ----------------------------------------------------------
    def write(self, path: Path) -> None:
        """Write every kept span, with the layer and cell names."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "layers": list(LAYERS),
            "cell_layer": CELL_LAYER,
            "cells": self.cells,
            "fields": ["id", "parent", "cell", "layer", "start_ns", "end_ns"],
            "spans": self.spans,
            "spans_issued": self._next_id[0],
        }
        path.write_text(json.dumps(doc))
