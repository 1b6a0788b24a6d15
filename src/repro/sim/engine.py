"""Execution-driven discrete-event simulation kernel.

This is the Python counterpart of the SPASM framework used by the paper:
application threads execute for real (they are generator coroutines that
compute real values), and every shared-memory access traps into the
simulated memory system, which decides how much simulated time the access
costs and how the cycles are categorised.

Scheduling is conservative: the engine always resumes the runnable thread
with the smallest local clock, so operations are *issued* in global
simulated-time order.  For data-race-free applications (the paper's
assumption) this guarantees that the values observed by the Python-level
execution are the values the simulated machine would observe.

Hot-path structure (see docs/architecture.md for the full design):

* The ready queue is an :class:`repro.sim.wheel.EventWheel`: two
  parallel lists, ``times`` and ``tids``, sorted by time with equal
  times in arrival order — the exact ``(time, seq, tid)`` order of the
  original global ``heapq`` without storing ``seq``.  Each runnable
  thread has exactly one entry and a blocked or finished one none, so
  the lists stay at most P long and a popped entry is never stale.

* Run-ahead fast path: once a thread is resumed, the fused scheduler
  loop in :meth:`Engine.run` executes its consecutive ops *without
  re-entering the scheduler* for as long as the thread's clock does not
  pass the horizon, the earliest pending entry ``times[0]``.  It is read
  once per segment and again after sync ops (the only ops that can wake
  a thread), so the common op costs one float compare.  Run-ahead
  deliberately never *pre-executes* ops past the horizon: pulling the
  next op out of a generator runs real application code (e.g. the store
  that follows a ``yield Write``), so peeking early would publish
  Python-level values at the wrong simulated time.  Within-horizon
  batching is the maximal safe run-ahead for execution-driven threads.

* Segment switch: a thread that passes the horizon is re-inserted with
  two list appends if its clock is at or past the last queued time
  (where ``bisect_right`` would put it), else one ``bisect_right`` plus
  two list inserts; one that blocks or finishes inserts nothing.  The
  loop head pops the front entry and takes the thread's clock from it.

* Settled reads: a read at or past a memory system's declared settled
  horizon (see :class:`MemorySystemProtocol`; the z-machine's) is
  charged in the loop as the stall-free hit ``read`` would return,
  without the call.  On other systems it costs one ``is None`` test.
"""

from __future__ import annotations

import gc
from collections.abc import Generator, Iterable
from bisect import bisect_right
from typing import Any, Protocol

from ..config import MachineConfig
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
from .wheel import EventWheel

_INF = float("inf")


class MemorySystemProtocol(Protocol):
    """What the engine requires of a memory system model.

    A system may also declare a *settled horizon*: a float attribute
    ``settled_horizon`` that it keeps current.  Declaring it promises
    that every read issued at ``now >= settled_horizon`` is a stall-free
    hit completing at ``now + _hit_cycles`` (its ``_hit_result``
    flyweight) and changes no memory-system state.  :meth:`Engine.run`
    then charges such reads itself, without calling :meth:`read`.  A
    system without the attribute, or with it None, sees every read.
    """

    def read(self, proc: int, addr: int, now: float) -> AccessResult: ...

    def write(self, proc: int, addr: int, now: float) -> AccessResult: ...

    def acquire(self, proc: int, now: float) -> AccessResult: ...

    def release(self, proc: int, now: float) -> AccessResult: ...


class SyncManagerProtocol(Protocol):
    """What the engine requires of a synchronisation manager."""

    def bind(self, engine: "Engine") -> None: ...

    def acquire(self, proc: int, lock_id: int, now: float) -> float | None: ...

    def release(self, proc: int, lock_id: int, now: float) -> float: ...

    def barrier_wait(self, proc: int, barrier_id: int, now: float) -> float | None: ...


class DeadlockError(RuntimeError):
    """Raised when no thread is runnable but some threads are blocked."""


class _Thread:
    __slots__ = (
        "tid", "gen", "send", "time", "stats", "blocked", "block_time", "done", "feedback",
    )

    def __init__(self, tid: int, gen: Generator[Op, None, None]):
        self.tid = tid
        self.gen = gen
        #: ``gen.send``, bound once: the scheduler resumes through it.
        self.send = gen.send
        #: Clock while blocked or done; a runnable thread's clock is its
        #: ready-queue entry (the segment switch does not store it here).
        self.time = 0.0
        self.stats = ProcStats()
        self.blocked = False
        self.block_time = 0.0
        self.done = False
        #: Fed into the generator at the next resume: the thread's clock
        #: as a bare float (common case — no tuple allocation per op),
        #: ``(time, AccessResult)`` after a ``ReadNB``, or None to prime
        #: a fresh generator / resume after a blocking sync op.
        self.feedback: float | tuple[float, object] | None = None


class Engine:
    """Conservative time-ordered scheduler for simulated SPMD threads.

    One thread runs per simulated processor; thread id equals processor
    id.  Use :meth:`spawn` to install the workers, then :meth:`run`.
    """

    def __init__(
        self,
        config: MachineConfig,
        memsys: MemorySystemProtocol,
        syncmgr: SyncManagerProtocol,
        max_ops: int | None = None,
    ):
        self.config = config
        self.memsys = memsys
        self.syncmgr = syncmgr
        self.max_ops = max_ops
        #: The run's observer (see :mod:`repro.sim.observer`): the only
        #: way to watch a run.  When None (the default) each op pays one
        #: ``None`` check; when set, the engine reports every charged
        #: cycle and memory-system outcome through its ``on_*`` callbacks.
        self.observer = None
        # Two schedulers must agree float for float: :meth:`run` and the
        # plain-heapq oracle :class:`repro.sim.reference.ReferenceEngine`.
        # A timing change lands in both.  Host profiling needs no hook
        # here: :class:`repro.obs.profile.HostProfiler` samples the stack.
        #: CPU-side degradation (per-node slowdown factors and the burst
        #: schedule) from ``config.degradation``.  None — the common case
        #: — keeps the Compute branch on a single pointer check; the
        #: memory/network axes are consumed by the memory system and the
        #: routed network, not here.
        deg = config.degradation
        self._degrade = deg if deg is not None and deg.affects_cpu else None
        self._threads: dict[int, _Thread] = {}
        self._queue = EventWheel()
        self._ops_executed = 0
        # Episode accessors are optional on the sync manager (test fakes
        # may not provide them); without them sync events are tagged with
        # episode 0, which only degrades trace attribution.
        self._lock_episode = getattr(syncmgr, "lock_episode", lambda _lock_id: 0)
        self._barrier_episode = getattr(syncmgr, "barrier_episode", lambda _barrier_id: 0)
        self._flag_epoch = getattr(syncmgr, "flag_epoch", lambda _flag_id: 0)
        syncmgr.bind(self)

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def spawn(self, tid: int, gen: Generator[Op, None, None]) -> None:
        """Install generator ``gen`` as the thread for processor ``tid``."""
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
        return len(self._queue)

    def _push(self, thread: _Thread) -> None:
        self._queue.push(thread.time, thread.tid)

    def wake(self, tid: int, grant_time: float) -> None:
        """Unblock thread ``tid``; it resumes at ``grant_time``.

        The interval between the moment the thread blocked and
        ``grant_time`` is accounted as synchronisation wait.
        """
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
        """Run all threads to completion and return the statistics.

        The scheduler loop and the per-thread op loop are fused into one
        frame: engine-wide constants (memory system entry points, sync
        manager, op budget) become locals once per *run*, per-segment
        state (generator send, stats, clock, feedback) once per
        scheduling segment.  At small P a segment is only one or two ops
        long, so a per-segment function call plus prologue was as hot as
        the per-op work itself.  The stall decomposition (the reference
        engine's ``_charge``) is written out inline with the *identical*
        float operation order, once for data accesses and once for sync
        ops, so results are bit-for-bit those of the original heap-based
        loop (pinned by tests/test_engine_equivalence.py).
        Keep it in lockstep with
        :class:`repro.sim.reference.ReferenceEngine`, the only other
        scheduler loop: a timing change lands in both.

        The ready queue's lists are locals too.  The loop head pops the
        front entry, whose time is the thread's clock; a segment ends by
        re-inserting the thread (clock past the horizon) or by inserting
        nothing (blocked, finished), so every runnable thread has exactly
        one entry and the pop needs no staleness check.  The run-ahead
        horizon lives in the local ``hz``, read as ``times[0]``: only
        sync operations can wake another thread (the only way the
        earliest pending time can move down mid-segment), so ``hz`` is
        re-read after those and nowhere else.
        """
        threads = self._threads
        # Hot-loop thread lookup is a list index (tids are dense 0..P-1).
        tlist: list[_Thread | None] = [None] * self.config.nprocs
        for th in threads.values():
            tlist[th.tid] = th
        queue = self._queue
        times = queue.times
        tids = queue.tids
        memsys = self.memsys
        mem_read = memsys.read
        mem_write = memsys.write
        syncmgr = self.syncmgr
        max_ops = self.max_ops
        ops_limit = max_ops if max_ops is not None else _INF
        ops = self._ops_executed
        obs = self.observer
        # Flyweight identity of the memory system's stall-free hit
        # result (None for systems without one, which disables the
        # shortcut but changes nothing else): a result that *is* this
        # object carries zero stalls by construction, so the stall
        # decomposition below collapses to a busy charge.
        hit_res = getattr(memsys, "_hit_result", None)
        # Settled horizon (see MemorySystemProtocol): the system itself
        # when it declares one, else None, so a read on any other system
        # pays one local ``is None`` test for it.
        settled: Any = memsys if getattr(memsys, "settled_horizon", None) is not None else None
        hit_cycles = settled._hit_cycles if settled is not None else 0.0
        # CPU degradation, hoisted to locals for the Compute branch.
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
        # The hot loop allocates heavily (feedback tuples, results,
        # queue entries) but creates no reference cycles that must be
        # reclaimed mid-run; generation-0 collections were a measurable
        # fraction of wall time, so cycle detection pauses until the run
        # completes.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
          while times:
            t = times.pop(0)
            tid = tids.pop(0)
            thread = tlist[tid]
            hz = times[0] if times else _INF
            send = thread.send
            stats = thread.stats
            fb = thread.feedback
            while True:
                try:
                    op = send(fb)
                except StopIteration:
                    thread.done = True
                    thread.time = t
                    stats.finish_time = t
                    break
                ops += 1
                if ops > ops_limit:
                    raise RuntimeError(
                        f"operation budget exceeded ({self.max_ops}); "
                        "likely runaway application loop"
                    )
                cls = op.__class__
                now = t
                fb = None
                if cls is Read:
                    stats.reads += 1
                    if settled is not None and now >= settled.settled_horizon:
                        # Settled read: the hit ``read`` would return,
                        # charged with the same float operations.
                        stats.read_hits += 1
                        rt = now + hit_cycles
                        busy = rt - now
                        if busy <= 0.0:
                            busy = 0.0
                        stats.busy += busy
                        t = rt
                        if obs is not None:
                            hit_res.time = rt
                            obs.on_access(tid, "read", op.addr, now, hit_res, busy)
                    else:
                        res = mem_read(tid, op.addr, now)
                        if res is hit_res:
                            # Stall-free hit: the flyweight carries zero in
                            # every stall category, so the decomposition
                            # below reduces to charging the elapsed cycles
                            # as busy (bit-identical: x + 0.0 == x for the
                            # non-negative accumulators involved).
                            stats.read_hits += 1
                            rt = res.time
                            busy = rt - now
                            if busy <= 0.0:
                                busy = 0.0
                            stats.busy += busy
                            t = rt
                            if obs is not None:
                                obs.on_access(tid, "read", op.addr, now, res, busy)
                        else:
                            if res.hit:
                                stats.read_hits += 1
                            else:
                                stats.read_misses += 1
                            rt = res.time
                            elapsed = rt - now
                            if elapsed < -1e-9:
                                raise RuntimeError(
                                    f"memory system returned completion {rt} before issue {now}"
                                )
                            rs = res.read_stall
                            ws = res.write_stall
                            bf = res.buffer_flush
                            stalls = rs + ws + bf
                            stats.read_stall += rs
                            stats.write_stall += ws
                            stats.buffer_flush += bf
                            busy = elapsed - stalls
                            if busy <= 0.0:
                                busy = 0.0
                            stats.busy += busy
                            t = rt
                            if obs is not None:
                                obs.on_access(tid, "read", op.addr, now, res, busy)
                elif cls is Compute:
                    cycles = op.cycles
                    if deg is not None:
                        # Per-node slowdown plus the phase-shifted burst
                        # schedule (rectangular wave: the first
                        # burst_len cycles of each period, node n's wave
                        # shifted by n * burst_phase).  Factors of 1.0
                        # multiply bit-identically.
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
                    res = mem_write(tid, op.addr, now)
                    stats.writes += 1
                    if res is hit_res:
                        rt = res.time
                        busy = rt - now
                        if busy <= 0.0:
                            busy = 0.0
                        stats.busy += busy
                        t = rt
                        if obs is not None:
                            obs.on_access(tid, "write", op.addr, now, res, busy)
                    else:
                        rt = res.time
                        elapsed = rt - now
                        if elapsed < -1e-9:
                            raise RuntimeError(
                                f"memory system returned completion {rt} before issue {now}"
                            )
                        rs = res.read_stall
                        ws = res.write_stall
                        bf = res.buffer_flush
                        stalls = rs + ws + bf
                        stats.read_stall += rs
                        stats.write_stall += ws
                        stats.buffer_flush += bf
                        busy = elapsed - stalls
                        if busy <= 0.0:
                            busy = 0.0
                        stats.busy += busy
                        t = rt
                        if obs is not None:
                            obs.on_access(tid, "write", op.addr, now, res, busy)
                elif cls is Acquire or cls is Release or cls is BarrierWait or cls is Fence:
                    # Sync op: the memory system's acquire/release side,
                    # then the data path's stall decomposition (same
                    # float operations, same order), then the sync
                    # manager.  Barrier arrival and fences are releases.
                    res = memsys.acquire(tid, now) if cls is Acquire else memsys.release(tid, now)
                    rt = res.time
                    elapsed = rt - now
                    if elapsed < -1e-9:
                        raise RuntimeError(
                            f"memory system returned completion {rt} before issue {now}"
                        )
                    rs = res.read_stall
                    ws = res.write_stall
                    bf = res.buffer_flush
                    stalls = rs + ws + bf
                    stats.read_stall += rs
                    stats.write_stall += ws
                    stats.buffer_flush += bf
                    busy = elapsed - stalls
                    if busy <= 0.0:
                        busy = 0.0
                    stats.busy += busy
                    t = rt
                    if cls is Acquire:
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
                            break
                        # max()-free wait accounting: += 0.0 is an identity
                        # on the non-negative sync_wait accumulator, so the
                        # no-wait case can skip the arithmetic entirely.
                        wait = grant - t
                        if wait > 0.0:
                            stats.sync_wait += wait
                            if obs is not None:
                                obs.on_sync_wait(tid, t, wait)
                            t = grant
                        hz = times[0] if times else _INF
                    elif cls is Release:
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
                        hz = times[0] if times else _INF
                    elif cls is BarrierWait:
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
                            break
                        wait = depart - t
                        if wait > 0.0:
                            stats.sync_wait += wait
                            if obs is not None:
                                obs.on_sync_wait(tid, t, wait)
                            t = depart
                        hz = times[0] if times else _INF
                    else:
                        if obs is not None:
                            obs.on_access(tid, "release", SyncPoint("fence", -1), now, res, busy)
                        stats.fences += 1
                elif cls is ReadNB:
                    res = mem_read(tid, op.addr, now)
                    stats.reads += 1
                    if res.hit:
                        stats.read_hits += 1
                    else:
                        stats.read_misses += 1
                    # Non-blocking: the processor only pays the issue cost;
                    # the caller sees the full AccessResult and manages the
                    # remaining latency itself.  Copy the result: memory
                    # systems may reuse a flyweight for stall-free hits,
                    # but this one outlives the call (the application
                    # holds it until the value is consumed).
                    issue = self.config.cache_hit_cycles
                    stats.busy += issue
                    t = now + issue
                    if obs is not None:
                        obs.on_access(tid, "read_nb", op.addr, now, res, 0.0)
                        if issue > 0.0:
                            obs.on_busy(tid, now, issue)
                    fb = (
                        t,
                        AccessResult(
                            res.time, res.read_stall, res.write_stall,
                            res.buffer_flush, res.hit,
                        ),
                    )
                elif cls is FlagSet:
                    if obs is not None:
                        # The epoch this set establishes is the current one + 1.
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
                    hz = times[0] if times else _INF
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
                        break
                    wait = depart - now
                    if wait > 0.0:
                        stats.sync_wait += wait
                        if obs is not None:
                            obs.on_sync_wait(tid, now, wait)
                        t = depart
                    hz = times[0] if times else _INF
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
                    # Zero simulated cycles: purely an observability marker.
                    if obs is not None:
                        obs.on_phase(tid, now, op.label)
                else:
                    raise TypeError(f"thread {tid} yielded non-Op {op!r}")
                if fb is None:
                    fb = t
                # Run-ahead check: keep executing while our clock has not
                # passed the earliest pending entry.  The horizon can only
                # move *down* during this segment (a sync op above may
                # have woken a thread at an earlier time — the branches
                # that can re-read ``hz`` right after), so one float
                # compare replaces the per-op queue peek.
                if t > hz:
                    thread.feedback = fb
                    # Switch: re-queue (EventWheel.push inlined; ``hz``
                    # is finite, so ``times`` is not empty).
                    if t >= times[-1]:
                        times.append(t)
                        tids.append(tid)
                    else:
                        i = bisect_right(times, t)
                        times.insert(i, t)
                        tids.insert(i, tid)
                    break
        finally:
            self._ops_executed = ops
            if gc_was_enabled:
                gc.enable()
        blocked = [th.tid for th in threads.values() if th.blocked]
        unfinished = [th.tid for th in threads.values() if not th.done]
        if blocked:
            raise DeadlockError(
                f"simulation deadlocked: threads {blocked} blocked, "
                f"threads {unfinished} unfinished"
            )
        total = max((th.stats.finish_time for th in threads.values()), default=0.0)
        procs = [threads[tid].stats for tid in sorted(threads)]
        return SimResult(total_time=total, procs=procs, ops=ops)
