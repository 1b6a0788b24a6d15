"""RCadapt: adaptive selective-write protocol.

Every shared write is treated as a *selective-write* (the explicit
communication primitive of Ramachandran et al.): the directory keeps the
active set of sharers for the block's current phase and updates exactly
that set.  After a selective-write the block is in a SPECIAL state; a
read miss arriving at the directory for a SPECIAL block signals that the
application's sharing pattern has changed, so the directory
re-initialises — it invalidates the current sharers and starts a fresh
active set with the requester.  The protocol thereby approaches
update-protocol read stalls with invalidate-protocol write traffic when
producer/consumer relationships are stable.
"""

from __future__ import annotations

from ...config import MachineConfig
from ...network.base import Network
from ...sim.stats import AccessResult
from ..cache import SHARED
from ..directory import NORMAL, SPECIAL
from .rcupd import RCUpd


class RCAdapt(RCUpd):
    name = "RCadapt"

    def __init__(self, config: MachineConfig, network: Network):
        super().__init__(config, network)
        self.reinitialisations = 0

    # Writes behave exactly like RCupd's merge-buffered updates, except
    # that the block enters the SPECIAL state.
    def _update_transaction(self, proc: int, block: int, nwords: int, start: float) -> float:
        done = super()._update_transaction(proc, block, nwords, start)
        self.directory[block].mode = SPECIAL
        return done

    # ------------------------------------------------------------------
    def read(self, proc: int, addr: int, now: float) -> AccessResult:
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
            else:
                if cache.capacity is not None:
                    del lines[block]
                    lines[block] = line
                line.updates_since_read = 0
                res = self._hit_result
                res.time = now + self._hit_cycles
                return res
        if (
            block in self.merge_buffers[proc]._open
            or block in self.store_buffers[proc]._pending_blocks
        ):
            # Forwarded from the merge or store buffer (inlined
            # MergeBuffer.has / StoreBuffer.has_pending).
            res = self._hit_result
            res.time = now + self._hit_cycles
            return res
        arrival = self._adaptive_fetch(proc, block, now)
        self._insert_line(proc, block, SHARED, now)
        return self._miss(arrival + self._hit_cycles, arrival - now, 0.0, 0.0, False)

    def _adaptive_fetch(self, proc: int, block: int, now: float) -> float:
        """Read-miss transaction with phase-change detection at the home."""
        net = self.network
        home = block % self._nprocs
        entry = self.directory[block]
        t = net.transfer(proc, home, 0, now)
        t += self._mem_cycles_at[home]
        if entry.mode == SPECIAL:
            # Established sharing pattern + a new read => new phase:
            # invalidate the stale active set and re-initialise.
            t = self._invalidate_sharers(block, proc, t, home)
            entry.sharers = 0
            entry.mode = NORMAL
            self.reinitialisations += 1
        arrival = net.transfer(home, proc, self.line_size, t)
        entry.sharers |= 1 << proc
        self.read_transactions += 1
        return arrival
