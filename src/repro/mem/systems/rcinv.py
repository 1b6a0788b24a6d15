"""RCinv: release consistency + Berkeley-style write-invalidate protocol.

A write that misses (or hits a non-exclusive line) is recorded in the
store buffer and the processor continues; the entry retires when
ownership is granted by the directory.  Write stall occurs only when the
buffer is full, buffer flush at release points, and read misses pay the
full remote-fetch latency (the dominant overhead for this system in the
paper).

Optionally performs sequential prefetch on read misses
(``config.prefetch_depth`` > 0), the latency-tolerance knob suggested in
the paper's Section 6.
"""

from __future__ import annotations

from ...config import MachineConfig
from ...network.base import Network
from ...sim.stats import AccessResult, SyncPoint
from ..buffers import StoreBuffer
from ..cache import OWNED, SHARED
from .base import BaseMemorySystem


class RCInv(BaseMemorySystem):
    name = "RCinv"

    def __init__(self, config: MachineConfig, network: Network):
        super().__init__(config, network)
        self.store_buffers = [
            StoreBuffer(config.store_buffer_entries) for _ in range(config.nprocs)
        ]
        self.prefetches_issued = 0

    # ------------------------------------------------------------------
    def read(self, proc: int, addr: int, now: float) -> AccessResult:
        cfg = self.config
        block = addr // self.line_size
        cache = self.caches[proc]
        # Inlined Cache.lookup (see its docstring): lazy invalidation +
        # LRU refresh, without the per-read method call.
        lines = cache._lines
        line = lines.get(block)
        if line is not None:
            inval = line.inval_at
            if inval is not None and now >= inval:
                del lines[block]
                line = None
            elif cache.capacity is not None:
                del lines[block]
                lines[block] = line
        if line is not None:
            if line.ready_at > 0.0:
                # First touch of a prefetched line: stall for whatever of
                # its latency is still unhidden, and keep the stream going.
                stall = max(0.0, line.ready_at - now)
                done = max(now, line.ready_at) + cfg.cache_hit_cycles
                line.ready_at = 0.0
                if cfg.prefetch_depth:
                    self._prefetch(proc, block, now)
                return self._miss(done, stall, 0.0, 0.0, stall == 0.0)
            line.updates_since_read = 0
            res = self._hit_result
            res.time = now + self._hit_cycles
            return res
        if block in self.store_buffers[proc]._pending_blocks:
            # Forward the value from the processor's own store buffer
            # (inlined StoreBuffer.has_pending).
            res = self._hit_result
            res.time = now + self._hit_cycles
            return res
        arrival = self._fetch_line(proc, block, now)
        self._insert_line(proc, block, SHARED, now)
        if cfg.prefetch_depth:
            self._prefetch(proc, block, now)
        return self._miss(arrival + self._hit_cycles, arrival - now, 0.0, 0.0, False)

    def _prefetch(self, proc: int, block: int, now: float) -> None:
        """Fetch the next blocks of the same page non-blockingly."""
        cache = self.caches[proc]
        for i in range(1, self.config.prefetch_depth + 1):
            nxt = block + i
            if cache.peek(nxt) is not None:
                continue
            if self.store_buffers[proc].has_pending(nxt):
                continue
            arrival = self._fetch_line(proc, nxt, now)
            self._insert_line(proc, nxt, SHARED, now, ready_at=arrival)
            self.prefetches_issued += 1

    # ------------------------------------------------------------------
    def write(self, proc: int, addr: int, now: float) -> AccessResult:
        block = addr // self.line_size
        cache = self.caches[proc]
        line = cache.lookup(block, now)
        entry = self.directory[block]
        entry.write_count += 1
        if (
            line is not None
            and line.state == OWNED
            and entry.owner == proc
            and entry.sharers == 1 << proc
        ):
            # Exclusive hit (dirty and no other sharer): complete locally.
            # If a reader has since fetched a copy the write must go back
            # through the directory to invalidate it.
            res = self._hit_result
            res.time = now + self._hit_cycles
            return res
        sb = self.store_buffers[proc]
        if block in sb._pending_blocks:
            # Ownership already being acquired for this block: coalesce.
            res = self._hit_result
            res.time = now + self._hit_cycles
            return res
        proceed, stall = sb.push(now, self._ownership_transaction, proc, block)
        return self._miss(proceed + self._hit_cycles, 0.0, stall, 0.0, False)

    # ------------------------------------------------------------------
    def release(self, proc: int, now: float, sync: SyncPoint | None = None) -> AccessResult:
        done, _ = self.store_buffers[proc].flush(now)
        # RC: all invalidations must be acknowledged before the release
        # is performed, not just granted by the home.
        fanout_done = self.fanout_done[proc]
        if fanout_done > done:
            done = fanout_done
        self.fanout_done[proc] = 0.0
        return self._miss(done, 0.0, 0.0, done - now, False)
