"""RCcomp: competitive-update protocol.

Identical to RCupd except that a cache self-invalidates a line that has
received ``competitive_threshold`` updates without an intervening local
read: useless updates stop flowing to that processor, cutting message
traffic — and hence write stall and buffer flush — at the cost of a read
miss if the processor does come back to the line.
"""

from __future__ import annotations

from ...config import MachineConfig
from ...network.base import Network
from .rcupd import RCUpd


class RCComp(RCUpd):
    name = "RCcomp"

    def __init__(self, config: MachineConfig, network: Network):
        super().__init__(config, network)
        self.threshold = config.competitive_threshold
        self.self_invalidations = 0

    def _deliver_update(self, block: int, victim: int, arrival: float) -> None:
        line = self.caches[victim].peek(block)
        if line is None:
            return
        line.updates_since_read += 1
        if line.updates_since_read >= self.threshold:
            # Competitive self-invalidation: drop the copy and tell the
            # home to stop sending updates (replacement-hint message).
            self.caches[victim].invalidate_at(block, arrival)
            self.directory.entry(block).remove_sharer(victim)
            self.network.transfer(victim, self.home_of(block), 0, arrival)
            self.self_invalidations += 1
