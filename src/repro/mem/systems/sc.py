"""SCinv: sequentially consistent write-invalidate baseline.

Not one of the paper's four RC systems, but the conventional frame of
reference the paper argues against benchmarking with ("in most memory
systems studies, a sequentially consistent invalidation-based protocol
is used as the frame of reference").  Included so studies can show both
reference points.  Under SC a write stalls the processor until ownership
is granted, so all write latency appears as write stall and there is
nothing to flush at releases.
"""

from __future__ import annotations

from ...sim.stats import AccessResult
from ..cache import OWNED, SHARED
from .base import BaseMemorySystem


class SCInv(BaseMemorySystem):
    name = "SCinv"

    def read(self, proc: int, addr: int, now: float) -> AccessResult:
        block = addr // self.line_size
        line = self.caches[proc].lookup(block, now)
        if line is not None:
            res = self._hit_result
            res.time = now + self._hit_cycles
            return res
        arrival = self._fetch_line(proc, block, now)
        self._insert_line(proc, block, SHARED, now)
        return self._miss(arrival + self._hit_cycles, arrival - now, 0.0, 0.0, False)

    def write(self, proc: int, addr: int, now: float) -> AccessResult:
        block = addr // self.line_size
        line = self.caches[proc].lookup(block, now)
        entry = self.directory[block]
        if (
            line is not None
            and line.state == OWNED
            and entry.owner == proc
            and entry.sharers == 1 << proc
        ):
            return self._hit(now)
        done = self._ownership_transaction(proc, block, 0, now, pipelined=False)
        return self._miss(done + self._hit_cycles, 0.0, done - now, 0.0, False)

    def release(self, proc: int, now: float) -> AccessResult:
        # Writes already completed in program order: nothing to drain.
        res = self._sync_result
        res.time = now
        return res
