"""Store (write) buffer and merge buffer models.

Under release consistency a processor write that misses is recorded in
the store buffer and the processor continues; the entry retires when its
coherence transaction (ownership acquisition or update propagation)
completes.  The processor stalls only when the buffer is full
(*write stall*) or when it must drain the buffer at a release point
(*buffer flush*).

The update-based systems additionally place writes in a merge buffer
that coalesces writes to the same cache line before they enter the store
buffer, trading fewer messages for extra flush work at synchronisation
points (paper Section 4, RCupd).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable


class StoreBuffer:  # lint: hot
    """Fixed-depth write buffer with serial retirement.

    Entries retire one at a time (one outstanding coherence transaction),
    which matches the conservative single-ported directory interface of
    the base hardware.  Each entry's transaction is the ``service``
    passed to :meth:`push`, called as ``service(proc, block, nwords,
    start)`` and returning the entry's completion time.

    Read forwarding: a block stays forwardable (:meth:`has_pending`)
    from its first push until the next :meth:`flush`, even after its
    entry has retired.  This is a known deviation from a buffer that
    forgets an entry when it retires; it is kept because forgetting
    retired blocks would change simulated results.
    """

    __slots__ = (
        "capacity", "_pending", "_last_retire", "_pending_blocks",
        "total_entries", "full_stalls", "peak_depth",
    )

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("store buffer capacity must be >= 1")
        self.capacity = capacity
        self._pending: deque[float] = deque()
        self._last_retire = 0.0
        #: blocks pushed since the last flush (read forwarding / merging).
        self._pending_blocks: set[int] = set()
        self.total_entries = 0
        self.full_stalls = 0
        #: Highest simultaneous occupancy ever observed (telemetry).
        self.peak_depth = 0

    def drain_completed(self, now: float) -> None:
        pending = self._pending
        while pending and pending[0] <= now:
            pending.popleft()

    def occupancy(self, now: float) -> int:
        self.drain_completed(now)
        return len(self._pending)

    def has_pending(self, block: int) -> bool:
        return block in self._pending_blocks

    def push(
        self,
        now: float,
        service: Callable[[int, int, int, float], float],
        proc: int,
        block: int,
        nwords: int = 0,
    ) -> tuple[float, float]:
        """Enqueue one write entry for ``block`` at time ``now``.

        ``service(proc, block, nwords, start)`` is the entry's coherence
        transaction; taking its arguments here instead of a closure keeps
        the per-write path allocation-free.  Returns ``(proceed_time,
        write_stall)``: the processor may continue at ``proceed_time``
        having stalled ``write_stall`` cycles waiting for a free slot.
        """
        pending = self._pending
        # Inlined drain_completed().
        while pending and pending[0] <= now:
            pending.popleft()
        proceed = now
        stall = 0.0
        if len(pending) >= self.capacity:
            proceed = pending.popleft()
            stall = proceed - now
            self.full_stalls += 1
        last = self._last_retire
        start = last if last > proceed else proceed
        retire = service(proc, block, nwords, start)
        if retire < start:
            raise ValueError("service returned completion before start")
        pending.append(retire)
        self._last_retire = retire
        self.total_entries += 1
        if len(pending) > self.peak_depth:
            self.peak_depth = len(pending)
        self._pending_blocks.add(block)
        return proceed, stall

    def flush(self, now: float) -> tuple[float, float]:
        """Drain the buffer (release semantics).

        Returns ``(complete_time, buffer_flush_stall)``.
        """
        self.drain_completed(now)
        self._pending_blocks.clear()
        if not self._pending:
            return now, 0.0
        done = self._pending[-1]
        self._pending.clear()
        return done, done - now


class MergeEntry:  # lint: hot
    """An open merge-buffer line: which words of a block are dirty.

    ``words`` is a bitmask with bit ``w`` set for each dirty word ``w``.
    """

    __slots__ = ("block", "words", "opened_at")

    def __init__(self, block: int, word: int, now: float):
        self.block = block
        self.words = 1 << word
        self.opened_at = now

    @property
    def nwords(self) -> int:
        return self.words.bit_count()


class MergeBuffer:  # lint: hot
    """Coalesces writes to the same line before they hit the network.

    Holds up to ``capacity_lines`` open lines (paper default: one cache
    block).  A write to a resident line merges for free; a write to a new
    line when full evicts the oldest open line, which must then be pushed
    into the store buffer as an update transaction.
    """

    __slots__ = ("capacity", "_open", "merged_writes", "evictions", "peak_depth")

    def __init__(self, capacity_lines: int = 1):
        if capacity_lines < 1:
            raise ValueError("merge buffer capacity must be >= 1")
        self.capacity = capacity_lines
        self._open: dict[int, MergeEntry] = {}
        self.merged_writes = 0
        self.evictions = 0
        #: Highest simultaneous open-line count ever observed (telemetry).
        self.peak_depth = 0

    def __len__(self) -> int:
        return len(self._open)

    def write(self, block: int, word: int, now: float) -> MergeEntry | None:
        """Record a write; returns an evicted entry that must be flushed,
        or ``None`` if the write merged or a slot was free."""
        entry = self._open.get(block)
        if entry is not None:
            bit = 1 << word
            if entry.words & bit:
                self.merged_writes += 1
            else:
                entry.words |= bit
            return None
        evicted = None
        if len(self._open) >= self.capacity:
            oldest_block = next(iter(self._open))
            evicted = self._open.pop(oldest_block)
            self.evictions += 1
        self._open[block] = MergeEntry(block, word, now)
        if len(self._open) > self.peak_depth:
            self.peak_depth = len(self._open)
        return evicted

    def flush_all(self) -> list[MergeEntry]:
        """Empty the buffer, returning every open line (release point)."""
        entries = list(self._open.values())
        self._open.clear()
        return entries

    def extract(self, block: int) -> MergeEntry | None:
        """Remove and return the open line for ``block``, if any."""
        return self._open.pop(block, None)

    def has(self, block: int) -> bool:
        return block in self._open
