"""Contention-free interconnect used by the z-machine.

The z-machine abstracts the communication subsystem down to a single
latency ``L`` determined only by the link speed: a datum of ``n`` bytes is
available at every consumer ``n * cycles_per_byte`` cycles after it is
produced, regardless of distance or concurrent traffic.
"""

from __future__ import annotations

from .base import Network


class IdealNetwork(Network):
    """Fixed-latency, infinite-bandwidth network (no contention)."""

    def __init__(self, cycles_per_byte: float, header_bytes: int = 0, fixed_cycles: float = 0.0):
        super().__init__()
        if cycles_per_byte < 0:
            raise ValueError("cycles_per_byte must be >= 0")
        self.cycles_per_byte = cycles_per_byte
        self.header_bytes = header_bytes
        self.fixed_cycles = fixed_cycles

    def serialisation_time(self, nbytes: int) -> float:
        return (nbytes + self.header_bytes) * self.cycles_per_byte

    def latency(self, nbytes: int) -> float:
        """The z-machine's ``L`` for an ``nbytes`` datum."""
        return self.fixed_cycles + self.serialisation_time(nbytes)

    def transfer(self, src: int, dst: int, nbytes: int, start: float) -> float:
        # latency() inlined, same operations in the same order.  The
        # link-busy time is the latency and nothing ever queues, so
        # ``contention_cycles`` stays 0.0.
        lat = (
            0.0 if src == dst
            else self.fixed_cycles + (nbytes + self.header_bytes) * self.cycles_per_byte
        )
        stats = self.stats
        stats.messages += 1
        stats.bytes += nbytes
        stats.latency_cycles += lat
        stats.busy_cycles += lat
        return start + lat

    def multicast(self, src: int, dsts: list[int], nbytes: int, start: float) -> dict[int, float]:
        # An ideal network does not serialise fan-out: every consumer sees
        # the datum after the same latency L (paper Section 2.2).
        return {dst: self.transfer(src, dst, nbytes, start) for dst in dsts}
