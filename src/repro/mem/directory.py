"""Full-map directory.

Each memory block has a home node (low-order interleaving of the block
number) holding a full presence bitmask, an optional dirty owner, and the
protocol-specific fields: the z-machine's propagation deadline and the
adaptive protocol's sharing-pattern mode.
"""

from __future__ import annotations

#: Adaptive-protocol directory modes (paper Section 4, RCadapt).
NORMAL = 0
#: A selective-write has established a sharing pattern for this block.
SPECIAL = 1


class DirEntry:  # lint: hot
    """Directory state for one memory block."""

    __slots__ = ("sharers", "owner", "mode", "avail_time", "last_writer")

    def __init__(self) -> None:
        #: Bitmask of processors holding a copy.
        self.sharers = 0
        #: Processor holding the block dirty (invalidate protocols).
        self.owner: int | None = None
        #: NORMAL or SPECIAL (adaptive protocol).
        self.mode = NORMAL
        #: z-machine: time by which all outstanding writes have propagated.
        self.avail_time = 0.0
        #: z-machine: the processor whose write is the freshest.
        self.last_writer: int | None = None

    # -- presence-bit helpers ------------------------------------------
    def remove_sharer(self, proc: int) -> None:
        self.sharers &= ~(1 << proc)

    def is_sharer(self, proc: int) -> bool:
        return bool(self.sharers >> proc & 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DirEntry(sharers={self.sharers:b}, owner={self.owner}, "
            f"mode={self.mode})"
        )


class Directory(dict[int, DirEntry]):  # lint: hot
    """block -> DirEntry map, created on demand.

    Indexing a block that has no entry yet creates it (``__missing__``),
    so the transaction builders write ``directory[block]`` and pay one
    dict lookup.  :meth:`peek` and ``in`` never create entries.
    """

    __slots__ = ()

    def __missing__(self, block: int) -> DirEntry:
        e = self[block] = DirEntry()
        return e

    def entry(self, block: int) -> DirEntry:
        return self[block]

    def peek(self, block: int) -> DirEntry | None:
        return self.get(block)

    def blocks(self) -> list[int]:
        return list(self)

    def blocks_by_home(self, home_of, nnodes: int) -> list[int]:
        """Directory population per home node (attribution context).

        ``home_of`` is the memory system's block->node mapping; the
        result counts how many blocks each node is home for, so an
        attribution report can show whether a hot home node is hot
        because it homes many blocks or few contended ones.
        """
        counts = [0] * nnodes
        for block in self:
            counts[home_of(block)] += 1
        return counts


class SharerTuples(dict[int, tuple[int, ...]]):  # lint: hot
    """presence mask -> ascending tuple of the processors it names.

    Filled on first use of each mask.  ``sharers[mask & ~(1 << p)]``
    names every sharer but ``p``, as a tuple that the fan-out paths
    share instead of building a list per coherence transaction.
    """

    __slots__ = ()

    def __missing__(self, mask: int) -> tuple[int, ...]:
        procs = []
        proc = 0
        bits = mask
        while bits:
            if bits & 1:
                procs.append(proc)
            bits >>= 1
            proc += 1
        out = self[mask] = tuple(procs)
        return out
