"""Optional access tracing.

:class:`TracingMemory` is an engine observer (see
:mod:`repro.sim.observer`) that records every memory-system outcome with
its timing and stall decomposition — the moral equivalent of SPASM's
event logs.  Useful for debugging protocol models and for explaining
where an application's overhead comes from.

    machine, result, trace = run_machine(app, "RCinv", cfg, attach=(TracingMemory.attach,))
    hot = trace.hottest_blocks(5)
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import nlargest
from itertools import islice
from operator import itemgetter

from .observer import Observer, subscribe
from .stats import SyncPoint


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


class TracingMemory(Observer):
    """Engine observer recording every memory-system outcome.

    ``max_events`` bounds memory use; later events are dropped (the
    counters keep full totals).  A non-blocking read is recorded as a
    ``"read"`` with the memory system's own result.

    Events are stored as parallel columns of plain values, so a long
    trace adds no objects for the garbage collector to traverse;
    :attr:`events` builds the :class:`TraceEvent` objects when read.
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
        self.dropped = 0
        #: One list per TraceEvent field every event has, in field
        #: order, a row per recorded event.
        self._columns = (
            self._kind, self._proc, self._addr, self._issue, self._complete,
            self._read_stall, self._write_stall, self._buffer_flush, self._hit,
        ) = tuple([] for _ in range(9))
        #: Row -> (sync_kind, sync_id, episode, label), for the sync ops
        #: and phase markers that carry them.
        self._tags: dict[int, tuple] = {}
        #: :attr:`events` as last built (rebuilt once more rows exist).
        self._built: list[TraceEvent] = []
        #: Per block, stall cycles and accesses over every data access,
        #: in arrival order: the first ``_tallied`` rows, then each
        #: dropped access as it arrives.  Rows are folded in when a
        #: ranking is asked for or the first access is dropped, so a
        #: recorded access costs only its row.
        self._block_stall: dict[int, float] = {}
        self._block_access: dict[int, int] = {}
        self._tallied = 0

    # -- construction ---------------------------------------------------
    @classmethod
    def attach(cls, machine, max_events: int | None = None) -> TracingMemory:
        """Subscribe a tracer to a Machine's engine."""
        tracer = cls(
            machine.engine.memsys.line_size, max_events, shm=getattr(machine, "shm", None)
        )
        subscribe(machine.engine, tracer)
        return tracer

    # -- engine-observer callbacks ----------------------------------------
    def on_access(self, proc: int, kind: str, target, issue: float, res, busy: float) -> None:
        kinds = self._kind
        row = len(kinds)
        if target.__class__ is SyncPoint:
            addr = None
            if row < self.max_events:
                self._tags[row] = (target.kind, target.sync_id, target.episode, None)
        else:
            addr = target
            if kind == "read_nb":
                kind = "read"
            if row >= self.max_events:
                if self._tallied < row:
                    self._tally_rows()
                self._tally(target // self._line_size, res.read_stall + res.write_stall)
        if row < self.max_events:
            kinds.append(kind)
            self._proc.append(proc)
            self._addr.append(addr)
            self._issue.append(issue)
            self._complete.append(res.time)
            self._read_stall.append(res.read_stall)
            self._write_stall.append(res.write_stall)
            self._buffer_flush.append(res.buffer_flush)
            self._hit.append(res.hit)
        else:
            self.dropped += 1

    def on_phase(self, proc: int, time: float, label: str) -> None:
        row = len(self._kind)
        if row < self.max_events:
            values = ("phase", proc, None, time, time, 0.0, 0.0, 0.0, True)
            for column, value in zip(self._columns, values):
                column.append(value)
            self._tags[row] = (None, None, None, label)
        else:
            self.dropped += 1

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
        """Fold the data rows recorded since the last call into the
        block tallies."""
        start = self._tallied
        line = self._line_size
        for addr, rs, ws in zip(
            islice(self._addr, start, None),
            islice(self._read_stall, start, None),
            islice(self._write_stall, start, None),
        ):
            if addr is not None:
                self._tally(addr // line, rs + ws)
        self._tallied = len(self._addr)

    # -- analysis ---------------------------------------------------------
    @property
    def events(self) -> list[TraceEvent]:
        """The recorded events in arrival order, built on first read.

        The list is shared between reads until more events arrive;
        treat it as read-only.
        """
        built = self._built
        if len(built) != len(self._kind):
            tags = self._tags
            built = self._built = [
                TraceEvent(*row, *tags[i]) if i in tags else TraceEvent(*row)
                for i, row in enumerate(zip(*self._columns))
            ]
        return built

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
        self._tally_rows()
        return self._ranked(self._block_stall, n)

    def busiest_blocks(self, n: int = 10) -> list[tuple[str, int]]:
        """Blocks ranked by access count, named by array."""
        self._tally_rows()
        return self._ranked(self._block_access, n)

    #: Export-facing alias pairing with :meth:`hottest_blocks` (the JSON
    #: sidecar keys are ``hottest_blocks`` / ``hottest_accessed``).
    hottest_accessed = busiest_blocks

    def events_for_proc(self, proc: int) -> list[TraceEvent]:
        return [e for e in self.events if e.proc == proc]

    def summary(self) -> dict[str, float]:
        kinds = self._kind
        hits = self._hit
        reads = writes = read_misses = write_misses = 0
        for kind, hit in zip(kinds, hits):
            if kind == "read":
                reads += 1
                read_misses += not hit
            elif kind == "write":
                writes += 1
                write_misses += not hit
        out: dict[str, float] = {
            "events": len(kinds) + self.dropped,
            "recorded": len(kinds),
            "reads": reads,
            "writes": writes,
            "read_miss_rate": read_misses / reads if reads else 0.0,
            "write_miss_rate": write_misses / writes if writes else 0.0,
            "total_stall": sum(
                rs + ws + bf
                for rs, ws, bf in zip(self._read_stall, self._write_stall, self._buffer_flush)
            ),
        }
        for kind, count in sorted(Counter(kinds).items()):
            out[f"events_{kind}"] = count
        return out
