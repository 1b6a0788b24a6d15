"""The z-machine: the paper's zero-overhead base machine model.

The only communication cost is the one necessitated by the pure data
flow of the application.  The producer of a datum is an oracle that
ships the datum to its consumers immediately and continues computing;
the datum is available at every consumer after the raw link latency
``L`` (no contention, no protocol).  Reads stall only when issued less
than ``L`` after the corresponding write — that stall *is* the inherent
communication cost, and it is the only nonzero category on this model.

Implementation follows Section 3 of the paper: the oracle is simulated
by a per-block counter/deadline at the directory; a read returns only
once every outstanding write to the block has propagated.  The cache
line is one word (4 bytes) so only true sharing communicates, and
synchronisation carries no data-flow guarantees (no buffer flushing).
"""

from __future__ import annotations

from ...config import MachineConfig
from ...network.ideal import IdealNetwork
from ...sim.stats import AccessResult, SyncPoint
from ..directory import Directory


class ZMachine:
    """Zero-overhead machine model (paper Sections 2-3)."""

    name = "z-mc"

    def __init__(self, config: MachineConfig, network: IdealNetwork | None = None):
        self.config = config
        self.network = network if network is not None else IdealNetwork(config.cycles_per_byte)
        self.line_size = config.z_line_size
        self.directory = Directory()
        #: ``L``: propagation latency of one z-machine line.
        self.latency = self.network.latency(self.line_size)
        self._hit_cycles = config.cache_hit_cycles
        #: Flyweight for stall-free accesses (see BaseMemorySystem._hit):
        #: the oracle never stalls writes and most reads arrive after the
        #: datum propagated, so nearly every access reuses this object.
        self._ok_result = AccessResult(0.0, hit=True)
        #: Engine fast-path alias: the scheduler recognises stall-free
        #: results by identity via the ``_hit_result`` attribute.
        self._hit_result = self._ok_result
        #: Flyweight for zero-cost sync ops (``hit`` stays False so it is
        #: never confused with the access-path flyweight above).
        self._sync_result = AccessResult(0.0)
        self.shared_writes = 0
        self.shared_reads = 0
        #: Total cycles spent by data on the network (Table 1); almost all
        #: of it is hidden under computation.
        self.network_cycles = 0.0
        self.stalled_reads = 0

    # ------------------------------------------------------------------
    def block_of(self, addr: int) -> int:
        return addr // self.line_size

    def home_of(self, block: int) -> int:
        """Home node of a block (same interleaving as the real systems,
        so attribution reports stay comparable across models)."""
        return self.config.home_node(block)

    def read(self, proc: int, addr: int, now: float) -> AccessResult:
        self.shared_reads += 1
        # Directory.peek without the method call (hot path: every
        # z-machine read).
        entry = self.directory.get(addr // self.line_size)
        if entry is not None and entry.last_writer != proc and entry.avail_time > now:
            # The datum is still in flight: the read stalls until the
            # counter for this block drops to zero.  This is the inherent
            # communication cost of the application.
            avail = entry.avail_time
            self.stalled_reads += 1
            return AccessResult(
                time=avail + self._hit_cycles, read_stall=avail - now, hit=False
            )
        res = self._ok_result
        res.time = now + self._hit_cycles
        return res

    def write(self, proc: int, addr: int, now: float) -> AccessResult:
        self.shared_writes += 1
        # Indexing creates the entry on first use (Directory.__missing__).
        entry = self.directory[addr // self.line_size]
        entry.write_count += 1
        latency = self.latency
        avail = now + latency
        if avail > entry.avail_time:
            entry.avail_time = avail
        entry.last_writer = proc
        self.network_cycles += latency
        stats = self.network.stats
        stats.messages += 1
        stats.bytes += self.line_size
        stats.latency_cycles += latency
        stats.busy_cycles += latency
        # The producer never waits: it ships the datum and keeps computing.
        res = self._ok_result
        res.time = now + self._hit_cycles
        return res

    def acquire(self, proc: int, now: float, sync: SyncPoint | None = None) -> AccessResult:
        res = self._sync_result
        res.time = now
        return res

    def release(self, proc: int, now: float, sync: SyncPoint | None = None) -> AccessResult:
        # Synchronisation on the z-machine is pure process control: the
        # counter mechanism already guarantees consumers see produced
        # values, so there are no buffers to flush (paper Section 3).
        res = self._sync_result
        res.time = now
        return res

    def sync_note(self, proc: int, now: float, sync: SyncPoint) -> None:
        """Zero-cost notification of a flag set/wait (tracing hook)."""

    def phase_note(self, proc: int, now: float, label: str) -> None:
        """Zero-cost notification of an application phase marker."""

    def publish(self, proc: int, blocks: tuple[int, ...], now: float) -> tuple[float, float]:
        """Data-flow publication: on the z-machine the counter mechanism
        already guarantees propagation, so only report readiness."""
        ready = now
        for block in blocks:
            entry = self.directory.peek(block)
            if entry is not None and entry.avail_time > ready:
                ready = entry.avail_time
        return now, ready

    def self_invalidate(self, proc: int, blocks: tuple[int, ...], now: float) -> None:
        """No caches to invalidate on the z-machine."""

    def traffic_summary(self) -> dict[str, float]:
        return {
            "messages": self.network.stats.messages,
            "bytes": self.network.stats.bytes,
            "latency_cycles": self.network.stats.latency_cycles,
            "contention_cycles": 0.0,
            "shared_writes": self.shared_writes,
            "network_cycles": self.network_cycles,
            "stalled_reads": self.stalled_reads,
        }
