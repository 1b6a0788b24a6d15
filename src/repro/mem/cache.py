"""Per-processor cache model.

The paper's experiments assume infinite caches so that the only
communication beyond the z-machine's is due to the coherence protocol;
finite (LRU) capacity is supported for the Section-7 "effect of finite
caches" extension.

Invalidations are *timestamped*: a remote write schedules the
invalidation message's arrival time on the victim line, and the victim
processor applies it lazily the next time it touches the line.  Because
the engine issues operations in global simulated-time order, lazy
application is equivalent to eager delivery.
"""

from __future__ import annotations

#: Cache line states (Berkeley-style protocol collapses to these two for
#: timing purposes; INVALID is represented by absence / expired line).
SHARED = 1
OWNED = 2

_STATE_NAMES = {SHARED: "SHARED", OWNED: "OWNED"}


class CacheLine:  # lint: hot
    """One cached block.

    ``inval_at`` — absolute time at which a pending invalidation arrives
    (``None`` if no invalidation is in flight).
    ``ready_at`` — time the data actually arrives (used by prefetching;
    a hit on an in-flight line stalls until then).
    ``updates_since_read`` — updates received since the last local read
    (competitive-update protocol bookkeeping).
    """

    __slots__ = ("state", "inval_at", "ready_at", "updates_since_read")

    def __init__(self, state: int, ready_at: float = 0.0):
        self.state = state
        self.inval_at: float | None = None
        self.ready_at = ready_at
        self.updates_since_read = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheLine({_STATE_NAMES.get(self.state, self.state)}, "
            f"inval_at={self.inval_at}, ready_at={self.ready_at})"
        )


class Cache:  # lint: hot
    """A single processor's cache: block -> CacheLine, optional LRU bound."""

    __slots__ = ("capacity", "_lines", "evictions")

    def __init__(self, capacity_lines: int | None = None):
        if capacity_lines is not None and capacity_lines < 1:
            raise ValueError("capacity_lines must be >= 1 or None")
        self.capacity = capacity_lines
        self._lines: dict[int, CacheLine] = {}
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._lines)

    def __contains__(self, block: int) -> bool:
        return block in self._lines

    def lookup(self, block: int, now: float) -> CacheLine | None:
        """Return the valid line for ``block`` at time ``now``, else None.

        Applies any pending invalidation whose arrival time has passed,
        and refreshes LRU recency on a hit.
        """
        line = self._lines.get(block)
        if line is None:
            return None
        if line.inval_at is not None and now >= line.inval_at:
            del self._lines[block]
            return None
        if self.capacity is not None:
            # dict preserves insertion order; re-insert to mark recency.
            del self._lines[block]
            self._lines[block] = line
        return line

    def peek(self, block: int) -> CacheLine | None:
        """Return the raw line without LRU/invalidation side effects."""
        return self._lines.get(block)

    def insert(self, block: int, state: int, ready_at: float = 0.0) -> tuple[int, CacheLine] | None:
        """Install (or replace) a line; returns the evicted (block, line)
        if the capacity bound forced a replacement, else ``None``."""
        evicted = None
        if block in self._lines:
            del self._lines[block]
        elif self.capacity is not None and len(self._lines) >= self.capacity:
            victim_block = next(iter(self._lines))
            evicted = (victim_block, self._lines.pop(victim_block))
            self.evictions += 1
        self._lines[block] = CacheLine(state, ready_at)
        return evicted

    def invalidate_at(self, block: int, when: float) -> bool:
        """Schedule invalidation of ``block`` at absolute time ``when``.

        Returns True if a line was present.  If an earlier invalidation is
        already pending it wins.
        """
        line = self._lines.get(block)
        if line is None:
            return False
        if line.inval_at is None or when < line.inval_at:
            line.inval_at = when
        return True

    def drop(self, block: int) -> None:
        """Remove a line immediately (e.g. on self-invalidation)."""
        self._lines.pop(block, None)
