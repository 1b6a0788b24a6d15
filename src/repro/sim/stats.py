"""Per-processor and machine-wide statistics.

The decomposition follows the paper: execution time on each processor is
busy time plus *read stall*, *write stall*, *buffer flush* (the three
memory-system overhead categories) plus synchronisation wait (inherent
process-coordination cost, not a memory-system overhead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


@dataclass(slots=True)
class ProcStats:
    """Cycle and event counters for one simulated processor."""

    busy: float = 0.0
    read_stall: float = 0.0
    write_stall: float = 0.0
    buffer_flush: float = 0.0
    sync_wait: float = 0.0

    reads: int = 0
    writes: int = 0
    read_hits: int = 0
    read_misses: int = 0
    acquires: int = 0
    releases: int = 0
    barriers: int = 0
    fences: int = 0
    finish_time: float = 0.0

    @property
    def overhead(self) -> float:
        """Total memory-system overhead cycles on this processor."""
        return self.read_stall + self.write_stall + self.buffer_flush

    @property
    def accounted(self) -> float:
        """Cycles accounted to any category (excludes end-of-run idle)."""
        return self.busy + self.overhead + self.sync_wait


@dataclass
class SimResult:
    """Result of one simulation run."""

    total_time: float
    procs: list[ProcStats]
    network_messages: int = 0
    network_bytes: int = 0
    network_busy_cycles: float = 0.0
    #: Operations the engine executed (every yielded :class:`Op`).
    ops: int = 0

    @property
    def nprocs(self) -> int:
        return len(self.procs)

    def _mean(self, attr: str) -> float:
        return sum(getattr(p, attr) for p in self.procs) / len(self.procs)

    @property
    def mean_busy(self) -> float:
        return self._mean("busy")

    @property
    def mean_read_stall(self) -> float:
        return self._mean("read_stall")

    @property
    def mean_write_stall(self) -> float:
        return self._mean("write_stall")

    @property
    def mean_buffer_flush(self) -> float:
        return self._mean("buffer_flush")

    @property
    def mean_sync_wait(self) -> float:
        return self._mean("sync_wait")

    @property
    def mean_overhead(self) -> float:
        return self._mean("read_stall") + self._mean("write_stall") + self._mean("buffer_flush")

    @property
    def overhead_pct(self) -> float:
        """Mean memory-system overhead as % of total execution time.

        This is the number printed on top of each bar in Figures 2-5.
        """
        if self.total_time == 0:
            return 0.0
        return 100.0 * self.mean_overhead / self.total_time

    @property
    def total_reads(self) -> int:
        return sum(p.reads for p in self.procs)

    @property
    def total_writes(self) -> int:
        return sum(p.writes for p in self.procs)

    @property
    def total_read_misses(self) -> int:
        return sum(p.read_misses for p in self.procs)


class SyncPoint(NamedTuple):
    """Identity of the synchronisation operation behind a memory-system call.

    When an observer is attached, the engine passes one of these to
    ``on_access`` for every acquire, release, barrier, fence and flag
    operation (see :mod:`repro.sim.observer`) so that a trace can
    attribute the event to a concrete sync object: which lock, which
    barrier episode, which flag epoch.  ``kind`` is one of ``"lock"``,
    ``"barrier"``, ``"flag_set"``, ``"flag_wait"`` or ``"fence"``; ``episode`` counts
    completed grants/episodes/epochs of that object at the time of the
    operation (see :mod:`repro.analysis.checkers.races` for how the
    happens-before relation is rebuilt from these tags).

    An immutable named tuple rather than a frozen dataclass: an observed
    run builds one per sync op, and the tuple is about half the
    construction cost.  Subscribers tell it from a data address by
    ``target.__class__ is SyncPoint``.
    """

    kind: str
    sync_id: int
    episode: int = 0


class AccessResult:  # lint: hot
    """Outcome of a single memory-system access.

    ``time`` is the absolute completion time; the stall fields say how the
    cycles between issue and completion should be categorised (anything
    not claimed by a stall category is busy/latency charged as busy).

    Hand-written slotted class rather than a dataclass: one of these is
    built for (almost) every shared access, so construction cost is part
    of the simulator's per-event floor.  Memory systems may reuse a single
    instance for stall-free hits (see ``BaseMemorySystem._hit``);
    consumers must therefore read the fields before the next access on
    the same system, or copy (the engine copies for ``ReadNB``).
    """

    __slots__ = ("time", "read_stall", "write_stall", "buffer_flush", "hit")

    def __init__(
        self,
        time: float,
        read_stall: float = 0.0,
        write_stall: float = 0.0,
        buffer_flush: float = 0.0,
        hit: bool = False,
    ):
        self.time = time
        self.read_stall = read_stall
        self.write_stall = write_stall
        self.buffer_flush = buffer_flush
        self.hit = hit

    def __repr__(self) -> str:
        return (
            f"AccessResult(time={self.time!r}, read_stall={self.read_stall!r}, "
            f"write_stall={self.write_stall!r}, buffer_flush={self.buffer_flush!r}, "
            f"hit={self.hit!r})"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not AccessResult:
            return NotImplemented
        return (
            self.time == other.time
            and self.read_stall == other.read_stall
            and self.write_stall == other.write_stall
            and self.buffer_flush == other.buffer_flush
            and self.hit == other.hit
        )
