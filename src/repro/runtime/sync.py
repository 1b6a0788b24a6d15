"""Synchronisation manager: queue-based locks and barriers.

Synchronisation objects live at a home node and are operated by
request/grant messages over the same interconnect as data traffic (so
coherence traffic slows synchronisation down, as the paper observes).
Process-coordination wait time is accounted separately from the
memory-system overheads: it is inherent in the application.

The RC-model coupling (draining write buffers at releases) is handled by
the engine/memory system *before* the sync operation reaches us.
"""

from __future__ import annotations

import weakref
from collections import deque

from ..analysis.naming import sync_label
from ..config import MachineConfig
from ..network.base import Network

#: Cycles for the home node to process a sync request.
SYNC_HANDLING_CYCLES = 4.0


class _LockState:
    __slots__ = ("home", "holder", "queue", "grants", "name")

    def __init__(self, home: int, name: str = ""):
        self.home = home
        self.name = name
        self.holder: int | None = None
        self.queue: deque[tuple[int, float]] = deque()
        #: Completed grant count (the lock's "episode" for tracing).
        self.grants = 0


class _BarrierState:
    __slots__ = ("home", "participants", "waiting", "episodes", "name")

    def __init__(self, home: int, participants: int, name: str = ""):
        self.home = home
        self.name = name
        self.participants = participants
        self.waiting: list[tuple[int, float]] = []
        self.episodes = 0


class _FlagState:
    """Event flag with epochs (paper Section 6 data-flow decoupling)."""

    __slots__ = ("home", "epoch", "ready_time", "waiters", "name")

    def __init__(self, home: int, name: str = ""):
        self.home = home
        self.name = name
        self.epoch = 0
        #: time by which the data published with the latest epochs is
        #: fetchable (max over sets of their data-ready times)
        self.ready_time = 0.0
        #: blocked waiters: (proc, target_epoch, request_arrival)
        self.waiters: list[tuple[int, int, float]] = []


class SyncManager:
    """Creates and operates locks and barriers for one simulation."""

    def __init__(self, config: MachineConfig, network: Network):
        self.config = config
        self.network = network
        self._locks: list[_LockState] = []
        self._barriers: list[_BarrierState] = []
        self._flags: list[_FlagState] = []
        self._engine_ref = None
        self.lock_acquires = 0
        self.lock_contended = 0
        self.barrier_episodes = 0
        self.flag_sets = 0

    def bind(self, engine) -> None:
        """Wake waiters on ``engine``.

        Held weakly: the engine holds this manager, and a cycle between
        the two would keep a finished run's engine, memory system and
        directory alive until the next full collection.
        """
        self._engine_ref = weakref.ref(engine)

    @property
    def _engine(self):
        return self._engine_ref()

    # ------------------------------------------------------------------
    # object creation
    # ------------------------------------------------------------------
    def new_lock(self, name: str = "") -> int:
        lock_id = len(self._locks)
        self._locks.append(_LockState(home=lock_id % self.config.nprocs, name=name))
        return lock_id

    def new_barrier(self, participants: int | None = None, name: str = "") -> int:
        n = participants if participants is not None else self.config.nprocs
        if n < 1:
            raise ValueError("barrier needs at least one participant")
        barrier_id = len(self._barriers)
        self._barriers.append(
            _BarrierState(home=barrier_id % self.config.nprocs, participants=n, name=name)
        )
        return barrier_id

    def new_flag(self, name: str = "") -> int:
        flag_id = len(self._flags)
        self._flags.append(_FlagState(home=flag_id % self.config.nprocs, name=name))
        return flag_id

    def sync_names(self) -> dict[tuple[str, int], str]:
        """(kind, id) -> name for every named sync object (reporting)."""
        out: dict[tuple[str, int], str] = {}
        for i, lock in enumerate(self._locks):
            if lock.name:
                out[("lock", i)] = lock.name
        for i, bar in enumerate(self._barriers):
            if bar.name:
                out[("barrier", i)] = bar.name
        for i, flag in enumerate(self._flags):
            if flag.name:
                out[("flag", i)] = flag.name
        return out

    # ------------------------------------------------------------------
    # flag protocol (data-flow decoupled synchronisation, paper §6)
    # ------------------------------------------------------------------
    def flag_set(self, proc: int, flag_id: int, now: float, data_ready: float) -> float:
        """Advance the flag's epoch; wake satisfied waiters.

        ``data_ready`` is when the published data is fetchable; waiters
        are granted no earlier than that (the generalised counter
        mechanism of the z-machine).  Fire-and-forget for the setter.
        """
        flag = self._flags[flag_id]
        net = self.network
        self.flag_sets += 1
        arrive = net.transfer(proc, flag.home, self.config.sync_bytes, now)
        arrive += SYNC_HANDLING_CYCLES
        flag.epoch += 1
        if data_ready > flag.ready_time:
            flag.ready_time = data_ready
        still_waiting = []
        for waiter, target, req_arrive in flag.waiters:
            if target <= flag.epoch:
                send = max(arrive, req_arrive, flag.ready_time)
                grant = net.transfer(flag.home, waiter, self.config.sync_bytes, send)
                self._engine.wake(waiter, grant)
            else:
                still_waiting.append((waiter, target, req_arrive))
        flag.waiters = still_waiting
        return now + self.config.cache_hit_cycles

    def flag_wait(self, proc: int, flag_id: int, epoch: int, now: float) -> float | None:
        """Wait until the flag has been set ``epoch`` times.

        Returns the departure time if already satisfied, else None
        (caller blocks until :meth:`flag_set` wakes it).
        """
        flag = self._flags[flag_id]
        net = self.network
        arrive = net.transfer(proc, flag.home, self.config.sync_bytes, now)
        arrive += SYNC_HANDLING_CYCLES
        if flag.epoch >= epoch:
            send = max(arrive, flag.ready_time)
            return net.transfer(flag.home, proc, self.config.sync_bytes, send)
        flag.waiters.append((proc, epoch, arrive))
        return None

    def flag_epoch(self, flag_id: int) -> int:
        return self._flags[flag_id].epoch

    # ------------------------------------------------------------------
    # lock protocol
    # ------------------------------------------------------------------
    def acquire(self, proc: int, lock_id: int, now: float) -> float | None:
        """Request the lock.  Returns grant time, or None if blocked."""
        lock = self._locks[lock_id]
        net = self.network
        self.lock_acquires += 1
        arrive = net.transfer(proc, lock.home, self.config.sync_bytes, now)
        arrive += SYNC_HANDLING_CYCLES
        if lock.holder is None and not lock.queue:
            lock.holder = proc
            lock.grants += 1
            return net.transfer(lock.home, proc, self.config.sync_bytes, arrive)
        self.lock_contended += 1
        lock.queue.append((proc, arrive))
        return None

    def release(self, proc: int, lock_id: int, now: float) -> float:
        """Release the lock; wakes the next waiter if any.

        Returns when the releasing processor may continue (the release
        message is fire-and-forget).
        """
        lock = self._locks[lock_id]
        if lock.holder != proc:
            label = sync_label("lock", lock.name, lock_id)
            raise RuntimeError(
                f"processor {proc} released {label} held by {lock.holder}"
            )
        net = self.network
        arrive = net.transfer(proc, lock.home, self.config.sync_bytes, now)
        arrive += SYNC_HANDLING_CYCLES
        if lock.queue:
            waiter, req_arrive = lock.queue.popleft()
            grant_send = max(arrive, req_arrive)
            grant = net.transfer(lock.home, waiter, self.config.sync_bytes, grant_send)
            lock.holder = waiter
            lock.grants += 1
            self._engine.wake(waiter, grant)
        else:
            lock.holder = None
        return now + self.config.cache_hit_cycles

    def holder(self, lock_id: int) -> int | None:
        return self._locks[lock_id].holder

    def lock_episode(self, lock_id: int) -> int:
        """Completed grant count of ``lock_id`` (trace attribution)."""
        return self._locks[lock_id].grants

    def barrier_episode(self, barrier_id: int) -> int:
        """Completed episode count of ``barrier_id`` (trace attribution)."""
        return self._barriers[barrier_id].episodes

    # ------------------------------------------------------------------
    # barrier protocol
    # ------------------------------------------------------------------
    def barrier_wait(self, proc: int, barrier_id: int, now: float) -> float | None:
        """Arrive at the barrier.  Returns departure time for the last
        arriver (who releases everyone), None for the others (blocked)."""
        barrier = self._barriers[barrier_id]
        net = self.network
        arrive = net.transfer(proc, barrier.home, self.config.sync_bytes, now)
        barrier.waiting.append((proc, arrive))
        if len(barrier.waiting) < barrier.participants:
            return None
        # Everyone has arrived: the home releases all participants.
        go = max(t for _, t in barrier.waiting) + SYNC_HANDLING_CYCLES
        waiters = [p for p, _ in barrier.waiting]
        barrier.waiting.clear()
        barrier.episodes += 1
        self.barrier_episodes += 1
        departures = net.multicast(barrier.home, waiters, self.config.sync_bytes, go)
        my_departure = departures[proc]
        for p in waiters:
            if p != proc:
                self._engine.wake(p, departures[p])
        return my_departure
