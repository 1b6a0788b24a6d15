"""Plain-heapq reference scheduler — the engine's differential oracle.

The seed engine scheduled threads with a single global ``heapq`` keyed by
``(time, seq, tid)``; the production :class:`repro.sim.engine.Engine`
replaced that with a sorted ready queue (:class:`repro.sim.wheel.EventWheel`)
popped and re-filled inline, a fused run-ahead op loop, and a flyweight
fast path for stall-free hits — all
proved bit-identical against the golden fixture the seed engine recorded
(``tests/fixtures/engine_golden.json``).

:class:`ReferenceEngine` retains the seed structure as a first-class
oracle: one straight-line op loop, a global heap, no fusions, no
flyweight shortcut, no gc fiddling.  It must stay *structurally* simple
and *numerically* exact — every float operation appears in the same
order as the production engine so results agree bit-for-bit, which is
what ``repro fuzz`` (and the equivalence tests) rely on.  These are the
only two scheduler loops — :meth:`repro.sim.engine.Engine.run` and this
one — so keep the two in lockstep: any intentional timing change lands
in both, plus a golden regeneration with a commit message explaining
why the timing moved.

Equivalence notes (why this simpler loop is bit-identical):

* Heap order: the production queue keeps ``times``/``tids`` sorted by
  time and inserts with ``bisect_right``, so an entry lands after every
  equal time already queued — the order ``seq`` gives here, where it
  counts pushes.  With identical scheduling decisions both engines
  queue in the same order, so tie-breaks coincide.  Both read the
  horizon from the front entry.
* One entry per runnable thread: ``spawn``, ``wake`` (blocked threads
  only) and a switch each push once, and a blocked or finished thread
  pushes nothing, so no queued entry is ever stale.  The production
  loop relies on this (it takes the clock from the popped entry and
  checks nothing); this loop checks every pop and raises on a stale
  entry, so every fuzz draw tests the invariant.
* Run-ahead: the production loop re-reads its horizon (``times[0]``)
  only after sync ops.  Mid-segment the queue minimum can only change
  via a push from a wake, and wakes only happen inside sync ops, so
  recomputing the horizon from ``heap[0]`` after *every* op (done here)
  selects the same thread switches.
* Flyweight: the production fast path charges ``busy = rt - now`` when
  the result *is* the memory system's stall-free ``_hit_result``; with
  all stall fields 0.0 the general decomposition used here computes the
  same bits (``x - 0.0 == x`` and ``x + 0.0 == x`` for the non-negative
  accumulators involved).
* Settled reads: the production loop charges a z-machine read at or
  past ``settled_horizon`` without calling ``read``; this loop calls
  ``read`` for every read, which applies only the per-block rule.
* Network: :func:`use_reference_engine` also sends a routed network's
  messages through its generic paths, which are bit-identical to the
  fused ones at link factor 1.0.

This module also hosts the observable-outcome capture that the golden
fixture and the fuzz harness share (:data:`PROC_FIELDS`,
:func:`capture_outcome`, :func:`run_case`), so neither imports from
``tests/``.
"""

from __future__ import annotations

from collections.abc import Generator, Iterable
from heapq import heappop, heappush
from typing import TYPE_CHECKING

from ..config import MachineConfig
from ..network.routed import RoutedNetwork
from .engine import DeadlockError
from .events import (
    Acquire,
    BarrierWait,
    Compute,
    Fence,
    FlagSet,
    FlagWait,
    Op,
    Phase,
    Read,
    ReadNB,
    Release,
    SelfInvalidate,
    Stall,
    Write,
)
from .stats import AccessResult, ProcStats, SimResult, SyncPoint

if TYPE_CHECKING:
    from ..apps.factory import AppFactory
    from ..runtime.context import Machine

_INF = float("inf")


class _Thread:
    __slots__ = (
        "tid", "gen", "time", "stats", "blocked", "block_time", "done", "feedback",
    )

    def __init__(self, tid: int, gen: Generator[Op, None, None]):
        self.tid = tid
        self.gen = gen
        self.time = 0.0
        self.stats = ProcStats()
        self.blocked = False
        self.block_time = 0.0
        self.done = False
        self.feedback: float | tuple[float, object] | None = None


class ReferenceEngine:
    """Seed-structure scheduler, drop-in for :class:`repro.sim.engine.Engine`.

    Same construction signature and the same public surface the rest of
    the runtime touches (``spawn``/``spawn_all``/``wake``/``run``,
    ``memsys``/``observer``), so :func:`use_reference_engine` can swap it
    into a built :class:`repro.runtime.context.Machine` before apps are
    spawned.
    """

    def __init__(self, config, memsys, syncmgr, max_ops: int | None = None):
        self.config = config
        self.memsys = memsys
        self.syncmgr = syncmgr
        self.max_ops = max_ops
        self.observer = None
        deg = config.degradation
        self._degrade = deg if deg is not None and deg.affects_cpu else None
        self._threads: dict[int, _Thread] = {}
        #: Global ready heap of ``(time, seq, tid)`` — the seed layout.
        self._heap: list[tuple[float, int, int]] = []
        self._seq = 0
        self._ops_executed = 0
        self._lock_episode = getattr(syncmgr, "lock_episode", lambda _lock_id: 0)
        self._barrier_episode = getattr(syncmgr, "barrier_episode", lambda _barrier_id: 0)
        self._flag_epoch = getattr(syncmgr, "flag_epoch", lambda _flag_id: 0)
        syncmgr.bind(self)

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def spawn(self, tid: int, gen: Generator[Op, None, None]) -> None:
        if tid in self._threads:
            raise ValueError(f"thread {tid} already spawned")
        if not 0 <= tid < self.config.nprocs:
            raise ValueError(
                f"thread id {tid} outside processor range 0..{self.config.nprocs - 1}"
            )
        thread = _Thread(tid, gen)
        self._threads[tid] = thread
        self._push(thread)

    def spawn_all(self, gens: Iterable[Generator[Op, None, None]]) -> None:
        for tid, gen in enumerate(gens):
            self.spawn(tid, gen)

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    def queue_depth(self) -> int:
        """Number of pending ready-queue entries (observability probe)."""
        return len(self._heap)

    def _push(self, thread: _Thread) -> None:
        seq = self._seq + 1
        self._seq = seq
        heappush(self._heap, (thread.time, seq, thread.tid))

    def wake(self, tid: int, grant_time: float) -> None:
        thread = self._threads[tid]
        if not thread.blocked:
            raise RuntimeError(f"wake() on non-blocked thread {tid}")
        thread.blocked = False
        wait = max(0.0, grant_time - thread.block_time)
        thread.stats.sync_wait += wait
        obs = self.observer
        if obs is not None and wait > 0.0:
            obs.on_sync_wait(tid, thread.block_time, wait)
        thread.time = max(thread.time, grant_time)
        self._push(thread)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> SimResult:
        """Run all threads to completion and return the statistics."""
        heap = self._heap
        threads = self._threads
        while heap:
            time, _seq, tid = heappop(heap)
            thread = threads[tid]
            if thread.done or thread.blocked or thread.time != time:
                raise RuntimeError(
                    f"stale ready entry ({time}, {tid}): thread done={thread.done} "
                    f"blocked={thread.blocked} time={thread.time}"
                )
            self._run_thread(thread)
        blocked = [th.tid for th in threads.values() if th.blocked]
        unfinished = [th.tid for th in threads.values() if not th.done]
        if blocked:
            raise DeadlockError(
                f"simulation deadlocked: threads {blocked} blocked, "
                f"threads {unfinished} unfinished"
            )
        total = max((th.stats.finish_time for th in threads.values()), default=0.0)
        procs = [threads[tid].stats for tid in sorted(threads)]
        return SimResult(total_time=total, procs=procs, ops=self._ops_executed)

    def _run_thread(self, thread: _Thread) -> None:
        """One scheduling segment: run ``thread`` until it blocks,
        finishes, or its clock passes the earliest pending heap entry."""
        heap = self._heap
        memsys = self.memsys
        syncmgr = self.syncmgr
        obs = self.observer
        ops_limit = self.max_ops if self.max_ops is not None else _INF
        deg = self._degrade
        if deg is not None:
            cpu_f = deg.cpu_factors(self.config.nprocs)
            burst_period = deg.burst_period
            burst_len = burst_period * deg.burst_duty
            burst_factor = deg.burst_factor
            burst_phase = deg.burst_phase
        else:
            cpu_f = []
            burst_period = burst_len = burst_phase = 0.0
            burst_factor = 1.0
        tid = thread.tid
        send = thread.gen.send
        stats = thread.stats
        t = thread.time
        fb = thread.feedback
        while True:
            try:
                op = send(fb)
            except StopIteration:
                thread.done = True
                thread.time = t
                stats.finish_time = t
                return
            self._ops_executed += 1
            if self._ops_executed > ops_limit:
                raise RuntimeError(
                    f"operation budget exceeded ({self.max_ops}); "
                    "likely runaway application loop"
                )
            cls = op.__class__
            now = t
            fb = None
            if cls is Read:
                res = memsys.read(tid, op.addr, now)
                stats.reads += 1
                if res.hit:
                    stats.read_hits += 1
                else:
                    stats.read_misses += 1
                busy = self._charge(stats, now, res)
                t = res.time
                if obs is not None:
                    obs.on_access(tid, "read", op.addr, now, res, busy)
            elif cls is Compute:
                cycles = op.cycles
                if deg is not None:
                    f = cpu_f[tid]
                    if (
                        burst_period > 0.0
                        and (now + tid * burst_phase) % burst_period < burst_len
                    ):
                        f *= burst_factor
                    cycles = cycles * f
                stats.busy += cycles
                t = now + cycles
                if obs is not None and cycles > 0.0:
                    obs.on_busy(tid, now, cycles)
            elif cls is Write:
                res = memsys.write(tid, op.addr, now)
                stats.writes += 1
                busy = self._charge(stats, now, res)
                t = res.time
                if obs is not None:
                    obs.on_access(tid, "write", op.addr, now, res, busy)
            elif cls is Acquire:
                res = memsys.acquire(tid, now)
                busy = self._charge(stats, now, res)
                t = res.time
                if obs is not None:
                    sync = SyncPoint("lock", op.lock_id, self._lock_episode(op.lock_id))
                    obs.on_access(tid, "acquire", sync, now, res, busy)
                stats.acquires += 1
                grant = syncmgr.acquire(tid, op.lock_id, t)
                if grant is None:
                    thread.blocked = True
                    thread.block_time = t
                    thread.time = t
                    thread.feedback = None
                    return
                wait = grant - t
                if wait > 0.0:
                    stats.sync_wait += wait
                    if obs is not None:
                        obs.on_sync_wait(tid, t, wait)
                    t = grant
            elif cls is Release:
                res = memsys.release(tid, now)
                busy = self._charge(stats, now, res)
                t = res.time
                if obs is not None:
                    sync = SyncPoint("lock", op.lock_id, self._lock_episode(op.lock_id))
                    obs.on_access(tid, "release", sync, now, res, busy)
                stats.releases += 1
                done = syncmgr.release(tid, op.lock_id, t)
                wait = done - t
                if wait > 0.0:
                    stats.sync_wait += wait
                    if obs is not None:
                        obs.on_sync_wait(tid, t, wait)
                    t = done
            elif cls is BarrierWait:
                res = memsys.release(tid, now)
                busy = self._charge(stats, now, res)
                t = res.time
                if obs is not None:
                    sync = SyncPoint(
                        "barrier", op.barrier_id, self._barrier_episode(op.barrier_id)
                    )
                    obs.on_access(tid, "release", sync, now, res, busy)
                stats.barriers += 1
                depart = syncmgr.barrier_wait(tid, op.barrier_id, t)
                if depart is None:
                    thread.blocked = True
                    thread.block_time = t
                    thread.time = t
                    thread.feedback = None
                    return
                wait = depart - t
                if wait > 0.0:
                    stats.sync_wait += wait
                    if obs is not None:
                        obs.on_sync_wait(tid, t, wait)
                    t = depart
            elif cls is Fence:
                res = memsys.release(tid, now)
                busy = self._charge(stats, now, res)
                t = res.time
                if obs is not None:
                    obs.on_access(tid, "release", SyncPoint("fence", -1), now, res, busy)
                stats.fences += 1
            elif cls is ReadNB:
                res = memsys.read(tid, op.addr, now)
                stats.reads += 1
                if res.hit:
                    stats.read_hits += 1
                else:
                    stats.read_misses += 1
                issue = self.config.cache_hit_cycles
                stats.busy += issue
                t = now + issue
                if obs is not None:
                    obs.on_access(tid, "read_nb", op.addr, now, res, 0.0)
                    if issue > 0.0:
                        obs.on_busy(tid, now, issue)
                # Copy: memory systems may reuse a flyweight result, but
                # this one outlives the call (the app holds it until the
                # value is consumed).
                fb = (
                    t,
                    AccessResult(
                        res.time, res.read_stall, res.write_stall,
                        res.buffer_flush, res.hit,
                    ),
                )
            elif cls is FlagSet:
                if obs is not None:
                    sync = SyncPoint("flag_set", op.flag_id, self._flag_epoch(op.flag_id) + 1)
                    obs.on_access(tid, "flag_set", sync, now, AccessResult(now, hit=True), 0.0)
                proceed, data_ready = memsys.publish(tid, op.blocks, now)
                done = syncmgr.flag_set(tid, op.flag_id, proceed, data_ready)
                busy = done - now
                if busy > 0.0:
                    stats.busy += busy
                    if obs is not None:
                        obs.on_busy(tid, now, busy)
                    t = done
            elif cls is FlagWait:
                if obs is not None:
                    sync = SyncPoint("flag_wait", op.flag_id, op.epoch)
                    obs.on_access(tid, "flag_wait", sync, now, AccessResult(now, hit=True), 0.0)
                depart = syncmgr.flag_wait(tid, op.flag_id, op.epoch, now)
                if depart is None:
                    thread.blocked = True
                    thread.block_time = t
                    thread.time = t
                    thread.feedback = None
                    return
                wait = depart - now
                if wait > 0.0:
                    stats.sync_wait += wait
                    if obs is not None:
                        obs.on_sync_wait(tid, now, wait)
                    t = depart
            elif cls is SelfInvalidate:
                memsys.self_invalidate(tid, op.blocks, now)
                cost = len(op.blocks) * 1.0
                stats.busy += cost
                t = now + cost
                if obs is not None and cost > 0.0:
                    obs.on_busy(tid, now, cost)
            elif cls is Stall:
                cycles = op.cycles
                category = op.category
                if category == "read":
                    stats.read_stall += cycles
                elif category == "write":
                    stats.write_stall += cycles
                elif category == "flush":
                    stats.buffer_flush += cycles
                else:
                    stats.sync_wait += cycles
                t = now + cycles
                if obs is not None and cycles > 0.0:
                    obs.on_stall(tid, now, cycles, category)
            elif cls is Phase:
                if obs is not None:
                    obs.on_phase(tid, now, op.label)
            else:
                raise TypeError(f"thread {tid} yielded non-Op {op!r}")
            if fb is None:
                fb = t
            horizon = heap[0][0] if heap else _INF
            if t > horizon:
                thread.time = t
                thread.feedback = fb
                self._push(thread)
                return

    def _charge(self, stats: ProcStats, now: float, res: AccessResult) -> float:
        """Bucket the elapsed cycles of an access; return the busy part.

        Identical float operations in identical order to the stall
        decomposition ``Engine.run`` writes out inline for data and sync
        ops (with a stall-free result ``x - 0.0 == x``, and
        ``max(0.0, x)`` matches the inline ``if busy <= 0.0`` clamp)."""
        elapsed = res.time - now
        if elapsed < -1e-9:
            raise RuntimeError(
                f"memory system returned completion {res.time} before issue {now}"
            )
        stalls = res.read_stall + res.write_stall + res.buffer_flush
        stats.read_stall += res.read_stall
        stats.write_stall += res.write_stall
        stats.buffer_flush += res.buffer_flush
        busy = max(0.0, elapsed - stalls)
        stats.busy += busy
        return busy


# ----------------------------------------------------------------------
# machine integration + observable-outcome capture
# ----------------------------------------------------------------------

#: Per-proc counters that must match bit-for-bit across engines.
PROC_FIELDS = (
    "busy", "read_stall", "write_stall", "buffer_flush", "sync_wait",
    "reads", "writes", "read_hits", "read_misses",
    "acquires", "releases", "barriers", "fences", "finish_time",
)

#: Engine variants :func:`run_case` can drive.
ENGINES = ("wheel", "reference")


def use_reference_engine(machine: "Machine") -> ReferenceEngine:
    """Swap ``machine``'s engine for a :class:`ReferenceEngine`.

    Must run before ``machine.run`` (the engine holds the threads it
    spawns); before or after ``app.setup`` and the observers' ``attach``
    alike.  Construction rebinds the sync manager to the new engine, so
    wakes route to the reference heap, and the new engine keeps any
    observer already attached.  A routed network is switched to its
    generic paths (no fused ``transfer`` or ``fanout``), so the
    reference run also checks the network's fast paths.
    """
    old = machine.engine
    ref = ReferenceEngine(old.config, old.memsys, old.syncmgr, max_ops=old.max_ops)
    ref.observer = old.observer
    machine.engine = ref
    if isinstance(machine.network, RoutedNetwork):
        machine.network._generic = True
    return ref


def capture_outcome(machine: "Machine", result: SimResult) -> dict:
    """JSON-able observable outcome of a finished run.

    Everything the engine-equivalence contract pins: total time, op
    count, the full per-processor stall decomposition, network counters,
    traffic counters, and the final shared-memory image.  Floats survive
    the JSON round-trip exactly, so ``==`` on these documents is
    bit-level equality.
    """
    memory = [
        {"name": arr.name, "base": arr.base, "data": arr.snapshot()}
        for arr in machine.shm.arrays
    ]
    return {
        "total_time": result.total_time,
        "ops": result.ops,
        "procs": [
            {field: getattr(p, field) for field in PROC_FIELDS} for p in result.procs
        ],
        "network_messages": result.network_messages,
        "network_bytes": result.network_bytes,
        "traffic": machine.memsys.traffic_summary(),
        "memory": memory,
    }


def run_case(
    factory: "AppFactory",
    system: str,
    verify: bool = True,
    nprocs: int = 16,
    config: MachineConfig | None = None,
    engine: str = "wheel",
    max_ops: int | None = None,
) -> dict:
    """One simulation -> observable outcome, on a chosen engine variant.

    ``engine`` selects the production wheel engine (``"wheel"``) or the
    plain-heapq oracle (``"reference"``); everything else about the
    machine is identical, which is exactly what the differential tests
    and the fuzz harness compare.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    from ..apps.base import run_machine

    machine, result, *_ = run_machine(
        factory(),
        system,
        config if config is not None else MachineConfig(nprocs=nprocs),
        verify=verify,
        max_ops=max_ops,
        attach=(use_reference_engine,) if engine == "reference" else (),
    )
    return capture_outcome(machine, result)
