"""Optional access tracing, and the event log behind every built-in view.

:class:`EventLog` is the engine observer (see :mod:`repro.sim.observer`)
that the tracer, interval metrics (:mod:`repro.obs.metrics`) and
attribution (:mod:`repro.obs.attrib`) share: it stores each callback as
a row and, every :data:`_CHUNK` rows, folds the new rows into each of
its views, then drops them.  :class:`TracingMemory` is the view that
keeps the first ``max_events`` rows themselves, with their timing and
stall decomposition — the moral equivalent of SPASM's event logs.
Useful for debugging protocol models and for explaining where an
application's overhead comes from.

    machine, result, trace = run_machine(app, "RCinv", cfg, attach=(TracingMemory.attach,))
    hot = trace.hottest_blocks(5)
"""

from __future__ import annotations

from array import array
from collections import Counter, deque
from dataclasses import dataclass
from heapq import nlargest
from itertools import compress, count, islice, repeat
from math import inf
from operator import add, is_, itemgetter, not_
from struct import pack
from weakref import ref

from .observer import Observer, shared
from .stats import SyncPoint

#: Rows an :class:`EventLog` holds before folding them into its views:
#: bounds the log's memory, and keeps the fold work inside the run.
_CHUNK = 4096

#: Row tags of the callbacks that are not memory-system outcomes (an
#: access row carries its access kind instead).  Rows are tuples:
#:
#: * access: ``(kind, proc, target, issue, complete, read_stall,
#:   write_stall, buffer_flush, hit, busy)``, the :meth:`EventLog.on_access`
#:   arguments with ``res`` read out;
#: * phase marker: ``(PHASE, proc, label, time, time, 0.0, 0.0, 0.0, True,
#:   0.0)``, shaped like an access so that the tracer keeps both alike;
#: * spans: ``(BUSY, proc, start, cycles)``, ``(WAIT, proc, start, cycles)``
#:   and ``(STALL, proc, start, cycles, category)``.
#:
#: The log builds every tagged row with these very objects, so a fold
#: may test tags with ``is``.
BUSY, STALL, WAIT, PHASE = "busy", "stall", "sync_wait", "phase"

#: Tags of the span rows, which the tracer skips.
_SPANS = frozenset((BUSY, STALL, WAIT))

@dataclass(slots=True)
class TraceEvent:  # lint: hot
    """One traced memory-system operation.

    For synchronisation operations the ``sync_*`` fields identify the
    object involved: ``sync_kind`` is ``"lock"``, ``"barrier"``,
    ``"flag_set"``, ``"flag_wait"`` or ``"fence"``; ``sync_id`` is the
    object's id within its kind; ``episode`` is the grant/episode/epoch
    counter of that object at the time of the operation.  They are
    ``None`` for plain data accesses.
    """

    kind: str  # "read" | "write" | "acquire" | "release" | "flag_set" | "flag_wait" | "phase"
    proc: int
    addr: int | None
    issue: float
    complete: float
    read_stall: float
    write_stall: float
    buffer_flush: float
    hit: bool
    sync_kind: str | None = None
    sync_id: int | None = None
    episode: int | None = None
    #: Phase-marker label (``kind == "phase"`` only).
    label: str | None = None

    @property
    def latency(self) -> float:
        return self.complete - self.issue


def _most_common(tally: dict, n: int) -> list[tuple]:
    """``Counter.most_common(n)`` over a plain dict (same tie order)."""
    return nlargest(n, tally.items(), key=itemgetter(1))


class EventLog(Observer):
    """Records every engine callback as a row for its views to fold.

    One log serves every view attached to an engine (:meth:`LogView._share`).
    A fold sees the rows in arrival order, so it makes the additions a
    live callback would have made, in the same order.  The only live
    work is the gauge sampling of views whose gauges must be read at an
    exact moment of the run (:meth:`LogView._cross`).

    Each view holds its log; the log holds its views weakly, so a view
    and its log form no reference cycle and a dropped run is freed at
    once.  The machine keeps its attached views alive.
    """

    def __init__(self) -> None:
        self._rows: list[tuple] = []
        #: Weak references to the views, in the order they were added.
        self._views: list[ref[LogView]] = []
        #: Views that sample gauges when simulated time crosses their
        #: next boundary (weakly, like ``_views``), and the earliest such
        #: boundary.
        self._crossers: list[ref[LogView]] = []
        self._boundary = inf
        #: Whether any view folds busy and sync-wait spans; until one
        #: does, those callbacks record nothing.
        self._spans = False

    def add(self, view: LogView) -> None:
        """Fold into ``view`` every row recorded from now on."""
        self.flush()
        self._views.append(ref(view))
        self._spans = self._spans or view._folds_spans
        if type(view)._cross is not LogView._cross:
            self._crossers.append(ref(view))
            self._boundary = min(v._next_boundary for v in _live(self._crossers))

    def flush(self) -> None:
        """Fold the rows recorded since the last fold into every view."""
        rows = self._rows
        if rows:
            for view in _live(self._views):
                view._fold(rows)
            rows.clear()

    def _cross(self, t: float) -> None:
        n = len(self._rows)
        crossers = _live(self._crossers)
        for view in crossers:
            if t >= view._next_boundary:
                view._cross(t, n)
        self._boundary = min((v._next_boundary for v in crossers), default=inf)

    # -- engine-observer callbacks ----------------------------------------
    # A crossing is tested where interval metrics deposits cycles: every
    # span but a phase marker, and every access the engine charged time
    # for (not a non-blocking read, not a zero-latency outcome).
    def on_busy(self, proc: int, start: float, cycles: float) -> None:
        if not self._spans:
            return
        rows = self._rows
        rows.append((BUSY, proc, start, cycles))
        if start >= self._boundary:
            self._cross(start)
        if len(rows) >= _CHUNK:
            self.flush()

    def on_access(self, proc: int, kind: str, target, issue: float, res, busy: float) -> None:
        rows = self._rows
        complete = res.time
        rows.append((
            kind, proc, target, issue, complete,
            res.read_stall, res.write_stall, res.buffer_flush, res.hit, busy,
        ))
        if issue >= self._boundary and complete > issue and kind != "read_nb":
            self._cross(issue)
        if len(rows) >= _CHUNK:
            self.flush()

    def on_stall(self, proc: int, start: float, cycles: float, category: str) -> None:
        rows = self._rows
        rows.append((STALL, proc, start, cycles, category))
        if start >= self._boundary:
            self._cross(start)
        if len(rows) >= _CHUNK:
            self.flush()

    def on_sync_wait(self, proc: int, start: float, cycles: float) -> None:
        if not self._spans:
            return
        rows = self._rows
        rows.append((WAIT, proc, start, cycles))
        if start >= self._boundary:
            self._cross(start)
        if len(rows) >= _CHUNK:
            self.flush()

    def on_phase(self, proc: int, time: float, label: str) -> None:
        rows = self._rows
        rows.append((PHASE, proc, label, time, time, 0.0, 0.0, 0.0, True, 0.0))
        if len(rows) >= _CHUNK:
            self.flush()


def _live(refs: list[ref[LogView]]) -> list[LogView]:
    """The views behind ``refs`` that are still alive, in order."""
    return [view for view in (r() for r in refs) if view is not None]


def _passthrough(name: str) -> property:
    """A view's engine callback ``name``: its log's."""
    return property(lambda view: getattr(view._log, name))


class LogView:
    """A fold over an :class:`EventLog`'s rows.

    A view built directly owns a private log and passes its five engine
    callbacks through to it, so it can be fed by hand; ``attach`` folds
    from the engine's shared log instead.  Readers fold the pending rows
    first (:meth:`EventLog.flush`).
    """

    #: Simulated time at which :meth:`_cross` is next due (views that
    #: sample gauges override both).
    _next_boundary = inf
    #: Whether :meth:`_fold` reads busy and sync-wait rows.
    _folds_spans = False

    on_busy = _passthrough("on_busy")
    on_access = _passthrough("on_access")
    on_stall = _passthrough("on_stall")
    on_sync_wait = _passthrough("on_sync_wait")
    on_phase = _passthrough("on_phase")

    def __init__(self) -> None:
        self._log = EventLog()
        self._log.add(self)

    def _share(self, machine):
        """Fold from ``machine``'s engine event log, subscribing one if
        it has none, and stay alive as long as ``machine``; returns the
        view."""
        self._log = shared(machine.engine, EventLog)
        self._log.add(self)
        machine.views.append(self)
        return self

    def _fold(self, rows: list[tuple]) -> None:
        """Make this view's additions for ``rows``, in order."""
        raise NotImplementedError

    def _cross(self, t: float, row: int) -> None:
        """Sample gauges at simulated time ``t``, at or past
        :attr:`_next_boundary`, during the callback that recorded the
        ``row``-th pending row (counting from one)."""


class _Codes(dict):
    """Small-int codes of the strings a tracer stores.

    ``names[code]`` is the very string object first coded, so a decoded
    tag still passes an ``is`` test against :data:`PHASE`.
    """

    def __init__(self, *names: str) -> None:
        super().__init__()
        self.names: list[str] = []
        for name in names:
            self.__missing__(name)

    def __missing__(self, name: str) -> int:
        code = self[name] = len(self.names)
        self.names.append(name)
        return code


def _side(targets: list, classes: list, cls: type, base: int) -> list:
    """Replace the ``cls`` items of ``targets`` (whose classes are
    ``classes``) by ``~index`` into a side table that holds ``base``
    items so far; return the items replaced, in order."""
    if cls not in classes:
        return []
    at = list(compress(count(), map(is_, classes, repeat(cls))))
    items = list(map(targets.__getitem__, at))
    deque(map(targets.__setitem__, at, range(~base, ~base - len(at), -1)), maxlen=0)
    return items


def _extend(columns: tuple, values: tuple, n: int) -> None:
    """Append ``n`` values to each of ``columns``, converted in C: one
    ``struct.pack`` per column."""
    for column, column_values in zip(columns, values):
        column.frombytes(pack(f"{n}{column.typecode}", *column_values))


class TracingMemory(LogView):
    """Event-log view keeping every memory-system outcome as a row.

    ``max_events`` bounds memory use; later events are dropped (the
    counters keep full totals).  A non-blocking read is recorded as a
    ``"read"`` with the memory system's own result.

    Events are stored as typed :class:`array.array` columns of the log's
    rows, so a kept row costs a few dozen bytes and adds no objects for
    the garbage collector to traverse; :attr:`events` builds the
    :class:`TraceEvent` objects when read.
    """

    #: Single source of truth for the event-buffer bound; ``__init__``
    #: and :meth:`attach` both default to it (``max_events=None``), so
    #: changing it cannot leave the two constructors disagreeing.
    DEFAULT_MAX_EVENTS = 100_000

    def __init__(self, line_size: int, max_events: int | None = None, shm=None):
        if max_events is None:
            max_events = self.DEFAULT_MAX_EVENTS
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.max_events = max_events
        self._line_size = line_size
        #: Optional :class:`repro.runtime.sharedmem.SharedMemory`; when
        #: set, block rankings resolve block numbers to array names.
        self.shm = shm
        self._dropped = 0
        #: Codes of the row tags and sync kinds stored.
        self._codes = _Codes(PHASE)
        #: The first nine fields of each recorded access or phase row, a
        #: typed column each: tag code, proc, target, issue, complete,
        #: the stall decomposition and hit.  A data row's target is its
        #: address; a sync row's is ``~i`` for the ``i``-th entry of
        #: :attr:`_sync` and a phase row's ``~i`` for ``_labels[i]``.
        self._columns = (
            self._kind, self._proc, self._target, self._issue, self._complete,
            self._read_stall, self._write_stall, self._buffer_flush, self._hit,
        ) = (array("B"), array("i"), array("q"), *(array("d") for _ in range(5)), array("b"))
        #: The recorded :class:`SyncPoint` targets: kind code, id, episode.
        self._sync = (array("B"), array("q"), array("q"))
        self._labels: list[str] = []
        #: :attr:`events` as last built (rebuilt once more rows exist).
        self._built: list[TraceEvent] = []
        #: Per block, stall cycles and accesses over every data access,
        #: in arrival order: the first ``_tallied`` rows, then each
        #: dropped access as it is folded.  Recorded rows are tallied
        #: when a ranking is asked for or the first access is dropped,
        #: so a recorded access costs only its row.
        self._block_stall: dict[int, float] = {}
        self._block_access: dict[int, int] = {}
        self._tallied = 0
        super().__init__()

    # -- construction ---------------------------------------------------
    @classmethod
    def attach(cls, machine, max_events: int | None = None) -> TracingMemory:
        """Fold a tracer from a Machine's engine event log."""
        tracer = cls(
            machine.engine.memsys.line_size, max_events, shm=getattr(machine, "shm", None)
        )
        return tracer._share(machine)

    @property
    def dropped(self) -> int:
        """Events past ``max_events``, not recorded."""
        self._log.flush()
        return self._dropped

    # -- fold -------------------------------------------------------------
    def _fold(self, rows: list[tuple]) -> None:
        """Keep the access and phase rows while there is room; tally the
        data accesses among the rest."""
        room = self.max_events - len(self._kind)
        mine = [row for row in rows if row[0] not in _SPANS]
        if room > 0:
            if mine:
                self._keep(mine[:room])
            mine = mine[room:]
            if not mine:
                return
        if self._tallied < len(self._kind):
            self._tally_rows()
        self._dropped += len(mine)
        line = self._line_size
        for row in mine:
            target = row[2]
            if row[0] is not PHASE and target.__class__ is not SyncPoint:
                self._tally(target // line, row[5] + row[6])

    def _keep(self, rows: list[tuple]) -> None:
        """Append ``rows`` to the columns, and their sync and phase
        targets to the side tables."""
        kind, proc, target, *times, hit, _busy = zip(*rows)
        code = self._codes.__getitem__
        target = list(target)
        classes = list(map(type, target))
        points = _side(target, classes, SyncPoint, len(self._sync[1]))
        if points:
            sync_kind, *ids = zip(*points)
            _extend(self._sync, (map(code, sync_kind), *ids), len(points))
        self._labels += _side(target, classes, str, len(self._labels))
        _extend(self._columns, (map(code, kind), proc, target, *times, hit), len(rows))

    # -- block tallies ----------------------------------------------------
    def _tally(self, block: int, stall: float) -> None:
        # Plain dicts, not Counters: ``Counter.__missing__`` would run
        # once per new block.
        access = self._block_access
        access[block] = access.get(block, 0) + 1
        if stall:
            block_stall = self._block_stall
            block_stall[block] = block_stall.get(block, 0) + stall

    def _tally_rows(self) -> None:
        """Tally the data rows recorded since the last call."""
        start = self._tallied
        line = self._line_size
        for target, rs, ws in zip(
            islice(self._target, start, None),
            islice(self._read_stall, start, None),
            islice(self._write_stall, start, None),
        ):
            if target >= 0:
                self._tally(target // line, rs + ws)
        self._tallied = len(self._target)

    # -- analysis ---------------------------------------------------------
    @property
    def events(self) -> list[TraceEvent]:
        """The recorded events in arrival order, built on first read.

        The list is shared between reads until more events arrive;
        treat it as read-only.
        """
        self._log.flush()
        built = self._built
        if len(built) != len(self._kind):
            kind, proc, target, *times, hit = self._columns
            built = self._built = list(map(
                self._event, map(self._codes.names.__getitem__, kind), proc, target,
                *times, map(bool, hit),
            ))
        return built

    def _event(self, kind: str, proc: int, target: int, *rest) -> TraceEvent:
        """The :class:`TraceEvent` of a recorded row."""
        if target >= 0:
            return TraceEvent("read" if kind == "read_nb" else kind, proc, target, *rest)
        if kind is PHASE:
            return TraceEvent(kind, proc, None, *rest, label=self._labels[~target])
        sync_kind, sync_id, episode = self._sync
        return TraceEvent(
            kind, proc, None, *rest,
            self._codes.names[sync_kind[~target]], sync_id[~target], episode[~target],
        )

    def _ranked(self, tally: dict, n: int) -> list[tuple]:
        """The ``n`` largest tallies, each block named by the shared
        array(s) it covers
        (:meth:`repro.runtime.sharedmem.SharedMemory.name_blocks`), or
        ``"block:<n>"`` when no shared memory is attached."""
        top = _most_common(tally, n)
        if self.shm is None:
            names = [f"block:{block}" for block, _ in top]
        else:
            names = [span for span, _ in self.shm.name_blocks([b for b, _ in top], self._line_size)]
        return list(zip(names, [v for _, v in top]))

    def hottest_blocks(self, n: int = 10) -> list[tuple[str, float]]:
        """Blocks ranked by accumulated stall cycles, named by array."""
        self._log.flush()
        self._tally_rows()
        return self._ranked(self._block_stall, n)

    def busiest_blocks(self, n: int = 10) -> list[tuple[str, int]]:
        """Blocks ranked by access count, named by array."""
        self._log.flush()
        self._tally_rows()
        return self._ranked(self._block_access, n)

    #: Export-facing alias pairing with :meth:`hottest_blocks` (the JSON
    #: sidecar keys are ``hottest_blocks`` / ``hottest_accessed``).
    hottest_accessed = busiest_blocks

    def summary(self) -> dict[str, float]:
        self._log.flush()
        kinds = self._kind
        names = self._codes.names
        counts = {names[code]: n for code, n in Counter(kinds).items()}
        missed = Counter(compress(kinds, map(not_, self._hit)))
        misses = {names[code]: n for code, n in missed.items()}
        reads = counts.get("read", 0) + counts.get("read_nb", 0)
        writes = counts.get("write", 0)
        read_misses = misses.get("read", 0) + misses.get("read_nb", 0)
        write_misses = misses.get("write", 0)
        out: dict[str, float] = {
            "events": len(kinds) + self._dropped,
            "recorded": len(kinds),
            "reads": reads,
            "writes": writes,
            "read_miss_rate": read_misses / reads if reads else 0.0,
            "write_miss_rate": write_misses / writes if writes else 0.0,
            "total_stall": sum(
                map(add, map(add, self._read_stall, self._write_stall), self._buffer_flush)
            ),
        }
        if "read_nb" in counts:
            counts["read"] = reads
            del counts["read_nb"]
        for kind, n in sorted(counts.items()):
            out[f"events_{kind}"] = n
        return out
