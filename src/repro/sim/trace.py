"""Optional access tracing.

:class:`TracingMemory` is an engine observer (see
:mod:`repro.sim.observer`) that records every memory-system outcome with
its timing and stall decomposition — the moral equivalent of SPASM's
event logs.  Useful for debugging protocol models and for explaining
where an application's overhead comes from.

    machine = Machine(cfg, "RCinv")
    trace = TracingMemory.attach(machine)
    machine.run(worker)
    hot = trace.hottest_blocks(5)
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import nlargest
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
        self.events: list[TraceEvent] = []
        self.dropped = 0
        # Plain dicts, not Counters: ``Counter.__missing__`` would run
        # once per new block on the per-access path.
        self._block_stall: dict[int, float] = {}
        self._block_access: dict[int, int] = {}

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
        events = self.events
        if target.__class__ is SyncPoint:
            if len(events) < self.max_events:
                events.append(
                    TraceEvent(
                        kind, proc, None, issue, res.time,
                        res.read_stall, res.write_stall, res.buffer_flush, res.hit,
                        target.kind, target.sync_id, target.episode,
                    )
                )
            else:
                self.dropped += 1
            return
        if kind == "read_nb":
            kind = "read"
        if len(events) < self.max_events:
            events.append(
                TraceEvent(
                    kind, proc, target, issue, res.time,
                    res.read_stall, res.write_stall, res.buffer_flush, res.hit,
                )
            )
        else:
            self.dropped += 1
        block = target // self._line_size
        access = self._block_access
        access[block] = access.get(block, 0) + 1
        stall = res.read_stall + res.write_stall
        if stall:
            block_stall = self._block_stall
            block_stall[block] = block_stall.get(block, 0) + stall

    def on_phase(self, proc: int, time: float, label: str) -> None:
        if len(self.events) < self.max_events:
            self.events.append(
                TraceEvent(
                    kind="phase", proc=proc, addr=None, issue=time, complete=time,
                    read_stall=0.0, write_stall=0.0, buffer_flush=0.0, hit=True,
                    label=label,
                )
            )
        else:
            self.dropped += 1

    # -- analysis ---------------------------------------------------------
    def block_name(self, block: int) -> str:
        """Resolve a block number to the shared array(s) it covers
        (:meth:`repro.runtime.sharedmem.SharedMemory.block_name`).
        Falls back to ``"block:<n>"`` when no shared memory is attached
        or the block covers allocator padding only.
        """
        if self.shm is None:
            return f"block:{block}"
        return self.shm.block_name(block, self._line_size)[0]

    def hottest_blocks(self, n: int = 10) -> list[tuple[str, float]]:
        """Blocks ranked by accumulated stall cycles, named by array."""
        return [(self.block_name(b), v) for b, v in _most_common(self._block_stall, n)]

    def busiest_blocks(self, n: int = 10) -> list[tuple[str, int]]:
        """Blocks ranked by access count, named by array."""
        return [(self.block_name(b), v) for b, v in _most_common(self._block_access, n)]

    #: Export-facing alias pairing with :meth:`hottest_blocks` (the JSON
    #: sidecar keys are ``hottest_blocks`` / ``hottest_accessed``).
    hottest_accessed = busiest_blocks

    def events_for_proc(self, proc: int) -> list[TraceEvent]:
        return [e for e in self.events if e.proc == proc]

    def summary(self) -> dict[str, float]:
        kinds: Counter[str] = Counter(e.kind for e in self.events)
        reads = [e for e in self.events if e.kind == "read"]
        writes = [e for e in self.events if e.kind == "write"]
        out: dict[str, float] = {
            "events": len(self.events) + self.dropped,
            "recorded": len(self.events),
            "reads": len(reads),
            "writes": len(writes),
            "read_miss_rate": (
                sum(1 for e in reads if not e.hit) / len(reads) if reads else 0.0
            ),
            "write_miss_rate": (
                sum(1 for e in writes if not e.hit) / len(writes) if writes else 0.0
            ),
            "total_stall": sum(
                e.read_stall + e.write_stall + e.buffer_flush for e in self.events
            ),
        }
        for kind, count in sorted(kinds.items()):
            out[f"events_{kind}"] = count
        return out
