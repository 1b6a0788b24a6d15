"""RCupd: release consistency + Firefly-style write-update protocol.

Writes coalesce in a one-line merge buffer; when a line is evicted from
the merge buffer (or flushed at a release point) an update transaction
carries the dirty words through the home to every current sharer.
Consumers therefore keep their copies (few read misses, only cold
misses) at the price of heavy update traffic: higher write stall and,
because of the merge buffer, a large buffer-flush component at
synchronisation points.
"""

from __future__ import annotations

from ...config import MachineConfig
from ...network.base import Network
from ...sim.stats import AccessResult
from ..buffers import MergeBuffer, StoreBuffer
from ..cache import SHARED
from .base import BaseMemorySystem


class RCUpd(BaseMemorySystem):
    name = "RCupd"

    def __init__(self, config: MachineConfig, network: Network):
        super().__init__(config, network)
        self.store_buffers = [
            StoreBuffer(config.store_buffer_entries) for _ in range(config.nprocs)
        ]
        self.merge_buffers = [
            MergeBuffer(config.merge_buffer_lines) for _ in range(config.nprocs)
        ]

    # ------------------------------------------------------------------
    def read(self, proc: int, addr: int, now: float) -> AccessResult:
        block = addr // self.line_size
        line = self.caches[proc].lookup(block, now)
        if line is not None:
            line.updates_since_read = 0
            res = self._hit_result
            res.time = now + self._hit_cycles
            return res
        if self.merge_buffers[proc].has(block) or self.store_buffers[proc].has_pending(block):
            # Forwarded from the merge or store buffer.
            res = self._hit_result
            res.time = now + self._hit_cycles
            return res
        arrival = self._fetch_line(proc, block, now)
        self._insert_line(proc, block, SHARED, now)
        return self._miss(arrival + self._hit_cycles, arrival - now, 0.0, 0.0, False)

    # ------------------------------------------------------------------
    def write(self, proc: int, addr: int, now: float) -> AccessResult:
        line_size = self.line_size
        block = addr // line_size
        word = (addr % line_size) // self.config.word_size
        entry = self.directory[block]
        # Write-validate: the writer keeps (or allocates) a local copy
        # without fetching; it is registered as a sharer so it receives
        # later updates from other writers.
        cache = self.caches[proc]
        if cache.lookup(block, now) is None:
            self._insert_line(proc, block, SHARED, now)
        entry.sharers |= 1 << proc
        evicted = self.merge_buffers[proc].write(block, word, now)
        if evicted is None:
            # Merged (or opened a fresh line): complete locally, no stall.
            res = self._hit_result
            res.time = now + self._hit_cycles
            return res
        proceed, stall = self.store_buffers[proc].push(
            now, self._update_transaction, proc, evicted.block, evicted.nwords
        )
        return self._miss(proceed + self._hit_cycles, 0.0, stall, 0.0, stall == 0.0)

    # ------------------------------------------------------------------
    def publish(self, proc: int, blocks: tuple[int, ...], now: float) -> tuple[float, float]:
        """Fire-and-forget issue of the buffered writes to ``blocks``.

        Matching merge-buffer lines enter the store buffer immediately;
        the producer only waits if the store buffer is full.  Data is
        consumable once it has reached its home node (the directory's
        ``avail_time``), not when every sharer has acknowledged — that is
        the whole point of decoupling data flow from synchronisation.
        """
        proceed = now
        mb = self.merge_buffers[proc]
        for block in blocks:
            entry = mb.extract(block)
            if entry is not None:
                proceed, _ = self.store_buffers[proc].push(
                    proceed, self._update_transaction, proc, entry.block, entry.nwords
                )
        ready = now
        for block in blocks:
            dir_entry = self.directory.peek(block)
            if dir_entry is not None and dir_entry.avail_time > ready:
                ready = dir_entry.avail_time
        return proceed, ready

    def release(self, proc: int, now: float) -> AccessResult:
        """Flush the merge buffer, drain the store buffer, and wait for
        every outstanding update fan-out to be acknowledged."""
        t = now
        sb = self.store_buffers[proc]
        for entry in self.merge_buffers[proc].flush_all():
            t, _ = sb.push(t, self._update_transaction, proc, entry.block, entry.nwords)
        done, _ = sb.flush(t)
        fanout_done = self.fanout_done[proc]
        if fanout_done > done:
            done = fanout_done
        self.fanout_done[proc] = 0.0
        return self._miss(done, 0.0, 0.0, done - now, False)
