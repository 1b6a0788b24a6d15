"""Vector-clock happens-before data-race detection, online.

The engine issues operations in global simulated-time order, so the
stream of engine-observer callbacks (:mod:`repro.sim.observer`) is a
linearisation of the execution.  :class:`RaceDetector` subscribes to it,
rebuilds the happens-before relation from the synchronisation events
(FastTrack-style) as they arrive and reports conflicting data accesses
that are unordered by it:

* **lock** — a release hands its vector clock to the lock; the next
  acquirer of the same lock joins it;
* **barrier** — all arrivals of one episode join into a per-episode
  clock that every departer then joins (an all-to-all fence);
* **flag** — each set joins into the flag's cumulative clock and
  snapshots it per epoch; a wait for epoch *k* joins snapshot *k*.

Blocked synchronisation operations are reported at *request* time, which
may precede the enabling release/set in the stream.  Joins are therefore
deferred: a sync edge registered at one callback is applied at the
processor's *next* access or phase marker, which the sync manager's
network round-trip guarantees is issued strictly after the enabling
event was observed.

Intentionally unsynchronised accesses (optimistic polling re-validated
under a lock) are declared with ``SharedArray(relaxed="read")`` and are
excluded from race candidacy; see docs/correctness.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...sim.observer import Observer, subscribe
from ...sim.stats import SyncPoint


@dataclass(frozen=True)
class RaceAccess:
    """One side of a reported race."""

    kind: str  # "read" | "write"
    proc: int
    time: float  # issue time in simulated cycles


@dataclass(frozen=True)
class Race:
    """Two conflicting shared accesses unordered by happens-before."""

    addr: int
    array: str
    element: int | None
    first: RaceAccess
    second: RaceAccess

    def describe(self) -> str:
        loc = f"{self.array}[{self.element}]" if self.element is not None else self.array
        return (
            f"{loc} (addr {self.addr}): {self.first.kind} by P{self.first.proc} "
            f"@t={self.first.time:.0f} unordered with {self.second.kind} by "
            f"P{self.second.proc} @t={self.second.time:.0f}"
        )


@dataclass
class RaceReport:
    """Deduplicated, bounded outcome of one detection pass."""

    races: list[Race] = field(default_factory=list)
    #: Total conflicting pairs found, including ones dropped by the
    #: dedup/bound (every (address, kind-pair) is reported once).
    total: int = 0
    accesses: int = 0
    sync_events: int = 0
    #: Data accesses skipped because their array is labeled ``relaxed``.
    relaxed_skipped: int = 0

    @property
    def clean(self) -> bool:
        return self.total == 0

    def describe(self, limit: int = 20) -> str:
        if self.clean:
            return f"no races ({self.accesses} accesses checked)"
        lines = [f"{self.total} race(s) over {self.accesses} accesses:"]
        lines += [f"  {race.describe()}" for race in self.races[:limit]]
        if len(self.races) > limit:
            lines.append(f"  ... {len(self.races) - limit} more distinct location(s)")
        return "\n".join(lines)


class _Shadow:
    """Per-address last-writer epoch plus per-processor read epochs."""

    __slots__ = ("write", "reads")

    def __init__(self):
        self.write: tuple[int, int, float] | None = None  # (proc, clock, time)
        self.reads: dict[int, tuple[int, float]] = {}  # proc -> (clock, time)


def _join(vc: list[int], other: list[int]) -> None:
    for i, v in enumerate(other):
        if v > vc[i]:
            vc[i] = v


class RaceDetector(Observer):
    """Engine observer running the happens-before pass as the run goes::

        detector = RaceDetector.attach(machine)
        machine.run(worker)
        print(detector.report.describe())

    ``shm`` (a :class:`~repro.runtime.sharedmem.SharedMemory`) enables
    array/element attribution and the ``relaxed`` labeled-access
    exemption; without it every access is checked and reported by raw
    address.  ``max_races`` bounds the distinct (location, kind-pair)
    entries kept in the report; the total count is always exact.
    """

    def __init__(self, nprocs: int, shm=None, max_races: int = 100):
        self.nprocs = nprocs
        self.shm = shm
        self.max_races = max_races
        self.report = RaceReport()
        #: Callbacks observed (accesses, sync ops and phase markers).
        self.events = 0
        self._clocks = [[0] * nprocs for _ in range(nprocs)]
        for p in range(nprocs):
            self._clocks[p][p] = 1
        self._lock_clocks: dict[int, list[int]] = {}
        self._barrier_acc: dict[tuple[int, int], list[int]] = {}
        self._flag_cum: dict[int, list[int]] = {}
        self._flag_snap: dict[tuple[int, int], list[int]] = {}
        #: Deferred joins, applied at the processor's next callback.
        self._pending: list[list[tuple[str, object]]] = [[] for _ in range(nprocs)]
        self._shadow: dict[int, _Shadow] = {}
        self._seen: set[tuple[int, str, str]] = set()

    @classmethod
    def attach(cls, machine, **kwargs) -> RaceDetector:
        """Subscribe a detector to a Machine's engine."""
        detector = cls(machine.config.nprocs, shm=machine.shm, **kwargs)
        return subscribe(machine.engine, detector)

    # -- engine-observer callbacks ----------------------------------------
    def on_access(self, proc: int, kind: str, target, issue: float, res, busy: float) -> None:
        self.events += 1
        if proc >= self.nprocs:
            return
        my = self._clock(proc)
        if target.__class__ is SyncPoint:
            self._on_sync(proc, my, kind, target)
        else:
            self._on_data(proc, my, "read" if kind == "read_nb" else kind, target, issue)

    def on_phase(self, proc: int, time: float, label: str) -> None:
        self.events += 1
        if proc < self.nprocs:
            self._clock(proc)

    # -- happens-before ---------------------------------------------------
    def _clock(self, p: int) -> list[int]:
        """``p``'s vector clock, after applying its deferred joins."""
        my = self._clocks[p]
        pending = self._pending[p]
        if pending:
            for kind, key in pending:
                if kind == "lock":
                    other = self._lock_clocks.get(key)
                elif kind == "barrier":
                    other = self._barrier_acc.get(key)
                else:
                    # Flag: prefer the exact epoch snapshot; fall back to
                    # the cumulative clock when no set of that epoch was seen.
                    other = self._flag_snap.get(key) or self._flag_cum.get(key[0])
                if other is not None:
                    _join(my, other)
            pending.clear()
        return my

    def _on_sync(self, p: int, my: list[int], kind: str, sync: SyncPoint) -> None:
        report = self.report
        report.sync_events += 1
        if kind == "acquire":
            if sync.kind == "lock":
                self._pending[p].append(("lock", sync.sync_id))
        elif kind == "release":
            if sync.kind == "barrier":
                key = (sync.sync_id, sync.episode)
                acc = self._barrier_acc.get(key)
                if acc is None:
                    acc = self._barrier_acc[key] = [0] * self.nprocs
                _join(acc, my)
                my[p] += 1
                self._pending[p].append(("barrier", key))
            elif sync.kind == "lock":
                self._lock_clocks[sync.sync_id] = list(my)
                my[p] += 1
            else:  # fence or untagged release: local epoch boundary only
                my[p] += 1
        elif kind == "flag_set":
            cum = self._flag_cum.get(sync.sync_id)
            if cum is None:
                cum = self._flag_cum[sync.sync_id] = [0] * self.nprocs
            _join(cum, my)
            self._flag_snap[(sync.sync_id, sync.episode)] = list(cum)
            my[p] += 1
        elif kind == "flag_wait":
            self._pending[p].append(("flag", (sync.sync_id, sync.episode)))

    def _on_data(self, p: int, my: list[int], kind: str, addr: int, issue: float) -> None:
        report = self.report
        report.accesses += 1
        arr = self.shm.array_at(addr) if self.shm is not None else None
        if arr is not None:
            relaxed = arr.relaxed
            if relaxed == "all" or (relaxed == "read" and kind == "read"):
                report.relaxed_skipped += 1
                return
        s = self._shadow.get(addr)
        if s is None:
            s = self._shadow[addr] = _Shadow()
        w = s.write
        me = RaceAccess(kind, p, issue)
        if w is not None and w[0] != p and w[1] > my[w[0]]:
            self._record(addr, arr, RaceAccess("write", w[0], w[2]), me)
        if kind == "read":
            s.reads[p] = (my[p], issue)
        else:
            for q, (rclock, rtime) in s.reads.items():
                if q != p and rclock > my[q]:
                    self._record(addr, arr, RaceAccess("read", q, rtime), me)
            s.write = (p, my[p], issue)
            s.reads.clear()

    def _record(self, addr: int, arr, first: RaceAccess, second: RaceAccess) -> None:
        report = self.report
        report.total += 1
        key = (addr, first.kind, second.kind)
        if key in self._seen:
            return
        self._seen.add(key)
        if len(report.races) >= self.max_races:
            return
        if arr is None:
            name, element = f"addr@{addr}", None
        else:
            name, element = arr.label, (addr - arr.base) // arr._word
        report.races.append(Race(addr, name, element, first, second))


__all__ = ["Race", "RaceAccess", "RaceDetector", "RaceReport"]
