"""Common machinery for the directory-based memory systems.

A memory system answers, for every shared read/write/acquire/release,
*when* the operation completes and how the elapsed cycles are split into
the paper's overhead categories.  Coherence transactions are costed as
sequences of network messages plus directory/memory access cycles, with
their side effects (presence bits, timestamped invalidations, update
counters) applied at issue time.
"""

from __future__ import annotations

from functools import partial

from ...config import MachineConfig
from ...network.base import Network
from ...sim.stats import AccessResult, SyncPoint
from ..cache import OWNED, SHARED, Cache
from ..directory import Directory, SharerTuples


class BaseMemorySystem:
    """Shared state and transaction helpers for all protocol models."""

    #: Human-readable system name (e.g. ``RCinv``); set by subclasses.
    name = "base"

    def __init__(self, config: MachineConfig, network: Network):
        self.config = config
        self.network = network
        self.line_size = config.line_size
        self._nprocs = config.nprocs
        self.directory = Directory()
        #: Presence mask -> tuple of sharers, shared by every fan-out.
        self._sharers = SharerTuples()
        self.caches = [Cache(config.cache_lines) for _ in range(config.nprocs)]
        #: Precomputed per-access costs: frozen-dataclass field reads are
        #: attribute chases on the hot path, so the constant costs are
        #: copied onto the system once at construction.
        self._hit_cycles = config.cache_hit_cycles
        self._mem_access_cycles = config.mem_access_cycles
        #: Directory/memory access cost per *home node*.  Homogeneous by
        #: default; a :class:`repro.scenarios.inject.Degradation` with
        #: ``node_mem`` factors models limping/contended memory modules.
        #: A factor of exactly 1.0 leaves every cost bit-identical.
        deg = config.degradation
        if deg is not None and deg.node_mem:
            self._mem_cycles_at = [
                config.mem_access_cycles * f for f in deg.mem_factors(config.nprocs)
            ]
        else:
            self._mem_cycles_at = [config.mem_access_cycles] * config.nprocs
        #: Flyweight result reused for every stall-free hit — a hit is by
        #: far the most common outcome, and allocating a fresh
        #: AccessResult per hit dominated the access-path profile.
        #: Consumers (engine, tracers, checkers) read results before the
        #: next access on this system; the engine copies for ReadNB.
        self._hit_result = AccessResult(0.0, hit=True)
        #: Flyweight for every other read, write and release outcome
        #: (misses, write stalls, buffer flushes), under the same
        #: read-before-next-access contract.  Each use sets all five
        #: fields; it is never ``_hit_result``, so the engine's
        #: stall-free shortcut does not apply to it.
        self._miss_result = AccessResult(0.0)
        #: Flyweight for zero-cost sync ops (acquire, SC release) under
        #: the same read-before-next-access contract.
        self._sync_result = AccessResult(0.0)
        #: Per-processor time by which all of its issued coherence
        #: fan-outs (invalidations/updates + acks) have completed.  Write
        #: buffer entries retire when the *home* acknowledges (pipelined,
        #: DASH-style); a release must additionally wait for this.
        self.fanout_done = [0.0] * config.nprocs
        #: Only a subclass that overrides _deliver_update needs a
        #: per-destination callback from the update fan-out.
        self._delivers_updates = (
            type(self)._deliver_update is not BaseMemorySystem._deliver_update
        )
        # traffic / event counters
        self.read_transactions = 0
        self.write_transactions = 0
        self.invalidations_sent = 0
        self.updates_sent = 0
        self.writebacks = 0

    # ------------------------------------------------------------------
    # address mapping
    # ------------------------------------------------------------------
    def block_of(self, addr: int) -> int:
        return addr // self.line_size

    def word_of(self, addr: int) -> int:
        return (addr % self.line_size) // self.config.word_size

    def home_of(self, block: int) -> int:
        # The transaction builders inline this as ``block % self._nprocs``.
        return self.config.home_node(block)

    # ------------------------------------------------------------------
    # engine interface (subclasses override read/write/release)
    # ------------------------------------------------------------------
    def read(self, proc: int, addr: int, now: float) -> AccessResult:
        raise NotImplementedError

    def write(self, proc: int, addr: int, now: float) -> AccessResult:
        raise NotImplementedError

    def acquire(self, proc: int, now: float, sync: SyncPoint | None = None) -> AccessResult:
        """Acquire semantics: nothing to do in these systems.

        ``sync`` identifies the synchronisation operation (lock id,
        barrier episode, ...); the protocol models ignore it, decorators
        such as :class:`repro.sim.trace.TracingMemory` record it.
        """
        res = self._sync_result
        res.time = now
        return res

    def release(self, proc: int, now: float, sync: SyncPoint | None = None) -> AccessResult:
        raise NotImplementedError

    def sync_note(self, proc: int, now: float, sync: SyncPoint) -> None:
        """Zero-cost notification of a flag set/wait (tracing hook)."""

    def phase_note(self, proc: int, now: float, label: str) -> None:
        """Zero-cost notification of an application phase marker."""

    # -- decoupled data-flow synchronisation (paper Section 6) ----------
    def publish(self, proc: int, blocks: tuple[int, ...], now: float) -> tuple[float, float]:
        """Issue any buffered writes to ``blocks`` without waiting.

        Returns ``(proceed_time, data_ready_time)``: when the producer
        may continue (fire-and-forget) and by when the published data is
        fetchable by consumers.  The base protocols apply write effects
        at issue time (ownership/home updates), so nothing extra is
        needed; the merge-buffered systems override this.
        """
        return now, now

    def self_invalidate(self, proc: int, blocks: tuple[int, ...], now: float) -> None:
        """Consumer-side smart self-invalidation: drop local copies of
        ``blocks`` so the next reads fetch fresh data.  Local operation,
        no network traffic; the directory's presence bit is cleared so
        update protocols stop streaming useless updates."""
        cache = self.caches[proc]
        for block in blocks:
            entry = self.directory.entry(block)
            if entry.owner == proc:
                continue  # never drop one's own dirty data
            if cache.peek(block) is not None:
                cache.drop(block)
            entry.remove_sharer(proc)

    # ------------------------------------------------------------------
    # transaction building blocks
    # ------------------------------------------------------------------
    def _hit(self, now: float) -> AccessResult:
        res = self._hit_result
        res.time = now + self._hit_cycles
        return res

    def _miss(
        self, time: float, read_stall: float, write_stall: float,
        buffer_flush: float, hit: bool,
    ) -> AccessResult:
        """Fill every field of the ``_miss_result`` flyweight and return it."""
        res = self._miss_result
        res.time = time
        res.read_stall = read_stall
        res.write_stall = write_stall
        res.buffer_flush = buffer_flush
        res.hit = hit
        return res

    def _fetch_line(self, proc: int, block: int, now: float) -> float:
        """Read-miss transaction; returns data arrival time at ``proc``.

        proc -> home (request), home memory access; if a dirty owner
        exists the home forwards the request and the owner supplies the
        data (cache-to-cache), else the home replies from memory.
        Side effect: ``proc`` becomes a sharer.
        """
        net = self.network
        home = block % self._nprocs
        entry = self.directory[block]
        t = net.transfer(proc, home, 0, now)
        t += self._mem_cycles_at[home]
        owner = entry.owner
        if owner is not None and owner != proc:
            t = net.transfer(home, owner, 0, t)
            t += self._hit_cycles
            arrival = net.transfer(owner, proc, self.line_size, t)
        else:
            arrival = net.transfer(home, proc, self.line_size, t)
        entry.sharers |= 1 << proc
        self.read_transactions += 1
        return arrival

    def _invalidate_sharers(
        self, block: int, requester: int, start: float, home: int
    ) -> float:
        """Send invalidations to every sharer except ``requester``.

        Returns the time at which the home has collected all acks.
        Victim caches get a timestamped invalidation at message arrival.
        """
        net = self.network
        entry = self.directory[block]
        victims = self._sharers[entry.sharers & ~(1 << requester)]
        ack_done = start
        if victims:
            # Applying the invalidations after the fan-out returns is
            # equivalent to a per-arrival callback: they touch only
            # cache lines and presence bits, never the network.
            arrivals, ack_done = net.fanout(home, victims, 0, start)
            caches = self.caches
            for victim, arr in arrivals.items():
                caches[victim].invalidate_at(block, arr)
            entry.sharers &= 1 << requester
            self.invalidations_sent += len(victims)
        owner = entry.owner
        if owner is not None and owner != requester:
            # Dirty owner must also give up the block (writeback to home).
            arr = net.transfer(home, owner, 0, ack_done)
            self.caches[owner].invalidate_at(block, arr)
            wb = net.transfer(owner, home, self.line_size, arr)
            self.writebacks += 1
            if wb > ack_done:
                ack_done = wb
            entry.owner = None
            entry.remove_sharer(owner)
        return ack_done

    def _ownership_transaction(
        self, proc: int, block: int, nwords: int, start: float,
        pipelined: bool = True,
    ) -> float:
        """Write-miss / upgrade: obtain exclusive ownership of ``block``.

        ``nwords`` is unused (ownership moves the whole line); it keeps
        the store-buffer service signature of
        :meth:`repro.mem.buffers.StoreBuffer.push`.

        With ``pipelined=True`` (release consistency) the entry retires
        when the home grants ownership; invalidation acks complete in the
        background and are only awaited at release points (recorded in
        ``fanout_done``).  With ``pipelined=False`` (sequential
        consistency) the returned time includes all acks.

        Side effects: other copies invalidated, ``proc`` becomes dirty
        owner with a valid line.
        """
        net = self.network
        home = block % self._nprocs
        entry = self.directory[block]
        t = net.transfer(proc, home, 0, start)
        t += self._mem_cycles_at[home]
        owner = entry.owner
        if entry.sharers & ~(1 << proc) or (owner is not None and owner != proc):
            acks_done = self._invalidate_sharers(block, proc, t, home)
        else:
            acks_done = t
        # Grant (with data if the requester lacks the line); the home does
        # not wait for acks before granting in the pipelined mode.
        cache = self.caches[proc]
        line = cache._lines.get(block)
        grant = net.transfer(home, proc, 0 if line is not None else self.line_size, t)
        entry.owner = proc
        entry.sharers = 1 << proc
        if line is None:
            cache.insert(block, OWNED)
        else:
            line.state = OWNED
            line.inval_at = None
        self.write_transactions += 1
        if pipelined:
            if acks_done > self.fanout_done[proc]:
                self.fanout_done[proc] = acks_done
            return grant
        return max(grant, acks_done)

    def _update_transaction(
        self, proc: int, block: int, nwords: int, start: float
    ) -> float:
        """Propagate ``nwords`` dirty words of ``block`` to all sharers.

        Writer -> home (data); the home acknowledges receipt (that ack
        retires the store-buffer entry) and multicasts the update to the
        current sharers; sharer acks complete in the background and are
        awaited at release points (``fanout_done``).
        """
        net = self.network
        home = block % self._nprocs
        entry = self.directory[block]
        payload = nwords * self.config.word_size
        t = net.transfer(proc, home, payload, start)
        t += self._mem_cycles_at[home]
        if t > entry.avail_time:
            entry.avail_time = t  # data fetchable from home from here on
        retire = net.transfer(home, proc, 0, t)
        targets = self._sharers[entry.sharers & ~(1 << proc)]
        ack_done = t
        if targets:
            _, ack_done = net.fanout(
                home, targets, payload, t,
                partial(self._deliver_update, block) if self._delivers_updates else None,
            )
            self.updates_sent += len(targets)
        if ack_done > self.fanout_done[proc]:
            self.fanout_done[proc] = ack_done
        self.write_transactions += 1
        return retire

    def _deliver_update(self, block: int, victim: int, arrival: float) -> None:
        """Hook: an update for ``block`` arrives at ``victim``.

        The plain update protocol just refreshes the copy and passes no
        callback to the fan-out at all; the competitive protocol
        overrides this to count useless updates.
        """

    def _evict(self, proc: int, block: int, line, now: float) -> None:
        """Handle a capacity eviction from ``proc``'s cache."""
        entry = self.directory.entry(block)
        if line.state == OWNED and entry.owner == proc:
            # Writeback of the dirty line (fire-and-forget traffic).
            self.network.transfer(proc, self.home_of(block), self.line_size, now)
            self.writebacks += 1
            entry.owner = None
        else:
            # Replacement hint so the directory stops tracking us.
            self.network.transfer(proc, self.home_of(block), 0, now)
        entry.remove_sharer(proc)

    def _insert_line(
        self, proc: int, block: int, state: int, now: float, ready_at: float = 0.0
    ) -> None:
        evicted = self.caches[proc].insert(block, state, ready_at)
        if evicted is not None:
            victim_block, victim_line = evicted
            self._evict(proc, victim_block, victim_line, now)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def traffic_summary(self) -> dict[str, float]:
        s = self.network.stats
        return {
            "messages": s.messages,
            "bytes": s.bytes,
            "latency_cycles": s.latency_cycles,
            "contention_cycles": s.contention_cycles,
            "read_transactions": self.read_transactions,
            "write_transactions": self.write_transactions,
            "invalidations": self.invalidations_sent,
            "updates": self.updates_sent,
            "writebacks": self.writebacks,
        }


__all__ = ["BaseMemorySystem", "SHARED", "OWNED"]
