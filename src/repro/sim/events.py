"""Operations that application threads yield to the simulation engine.

Application code runs as generator coroutines.  Each ``yield`` hands the
engine one of the operation records below; the engine charges the
appropriate simulated time (consulting the memory system or the
synchronisation manager) and then resumes the generator.  This is the
Python analogue of SPASM's trap-on-every-shared-access instrumentation.
"""

from __future__ import annotations


class Op:  # lint: hot
    """Base class for all simulator operations."""

    __slots__ = ()


class Compute(Op):  # lint: hot
    """Charge ``cycles`` of busy computation time to the issuing thread."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: float):
        if cycles < 0:
            raise ValueError(f"compute cycles must be >= 0, got {cycles}")
        self.cycles = cycles

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Compute({self.cycles})"


class Read(Op):  # lint: hot
    """Shared-memory read of the word at byte address ``addr``."""

    __slots__ = ("addr",)

    def __init__(self, addr: int):
        self.addr = addr

    def __repr__(self) -> str:  # pragma: no cover
        return f"Read(0x{self.addr:x})"


class Write(Op):  # lint: hot
    """Shared-memory write of the word at byte address ``addr``."""

    __slots__ = ("addr",)

    def __init__(self, addr: int):
        self.addr = addr

    def __repr__(self) -> str:  # pragma: no cover
        return f"Write(0x{self.addr:x})"


class Acquire(Op):
    """Acquire the lock with the given id (RC acquire semantics)."""

    __slots__ = ("lock_id",)

    def __init__(self, lock_id: int):
        self.lock_id = lock_id

    def __repr__(self) -> str:  # pragma: no cover
        return f"Acquire({self.lock_id})"


class Release(Op):
    """Release the lock with the given id (RC release semantics).

    The memory system drains its write buffers *before* the release is
    performed; that drain time is accounted as buffer-flush overhead.
    """

    __slots__ = ("lock_id",)

    def __init__(self, lock_id: int):
        self.lock_id = lock_id

    def __repr__(self) -> str:  # pragma: no cover
        return f"Release({self.lock_id})"


class BarrierWait(Op):
    """Wait at the barrier with the given id.

    Arrival has release semantics (buffers drained before the arrival
    message is sent), departure has acquire semantics.
    """

    __slots__ = ("barrier_id",)

    def __init__(self, barrier_id: int):
        self.barrier_id = barrier_id

    def __repr__(self) -> str:  # pragma: no cover
        return f"BarrierWait({self.barrier_id})"


class Fence(Op):
    """Stand-alone release fence: drain write buffers, no lock involved."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "Fence()"


class ReadNB(Op):
    """Non-blocking shared-memory read (latency-tolerance support).

    The memory system performs the access, but the processor clock
    advances only by the issue cost; the full :class:`AccessResult`
    (whose ``time`` field is when the data is actually available) is fed
    back to the generator, which decides how to overlap the latency —
    see ``repro.runtime.multithread``.
    """

    __slots__ = ("addr",)

    def __init__(self, addr: int):
        self.addr = addr

    def __repr__(self) -> str:  # pragma: no cover
        return f"ReadNB(0x{self.addr:x})"


class FlagSet(Op):
    """Set an event flag, publishing the data blocks that guard it.

    The paper's Section 6 proposal: use synchronisation only for control
    flow and a separate mechanism for data flow.  Setting the flag
    *issues* any buffered writes to the listed blocks (fire-and-forget —
    the producer does not wait for acknowledgements, so there is no
    buffer-flush stall) and wakes waiters once the data has reached its
    home.
    """

    __slots__ = ("flag_id", "blocks")

    def __init__(self, flag_id: int, blocks: tuple[int, ...] = ()):
        self.flag_id = flag_id
        self.blocks = blocks

    def __repr__(self) -> str:  # pragma: no cover
        return f"FlagSet({self.flag_id}, blocks={self.blocks})"


class FlagWait(Op):
    """Wait until the flag has been set at least ``epoch`` times."""

    __slots__ = ("flag_id", "epoch")

    def __init__(self, flag_id: int, epoch: int = 1):
        if epoch < 1:
            raise ValueError("epoch must be >= 1")
        self.flag_id = flag_id
        self.epoch = epoch

    def __repr__(self) -> str:  # pragma: no cover
        return f"FlagWait({self.flag_id}, epoch={self.epoch})"


class SelfInvalidate(Op):
    """Drop the issuing processor's cached copies of the given blocks.

    The consumer-side "smart self-invalidation" of the paper's Section 6:
    a local operation (no network traffic) that guarantees the next reads
    fetch fresh data.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple[int, ...]):
        self.blocks = blocks

    def __repr__(self) -> str:  # pragma: no cover
        return f"SelfInvalidate({self.blocks})"


class Phase(Op):
    """Zero-cost application phase marker (observability only).

    Emitted via :meth:`repro.runtime.context.AppContext.phase`; the
    engine charges no simulated time and reports the marker to its
    observer (``on_phase``) so tracers and metrics collectors can
    attribute subsequent events to a named phase (``repro.obs``).
    Timing-transparent: a run with phase markers is cycle-identical to
    the same run without them.
    """

    __slots__ = ("label",)

    def __init__(self, label: str):
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover
        return f"Phase({self.label!r})"


#: Valid stall categories for :class:`Stall`.
STALL_CATEGORIES = ("read", "write", "flush", "sync")


class Stall(Op):
    """Charge ``cycles`` of stall time to an explicit category.

    Used by software schedulers (e.g. the multithreaded-processor
    wrapper) that manage latencies themselves via :class:`ReadNB`.
    """

    __slots__ = ("cycles", "category")

    def __init__(self, cycles: float, category: str = "read"):
        if cycles < 0:
            raise ValueError(f"stall cycles must be >= 0, got {cycles}")
        if category not in STALL_CATEGORIES:
            raise ValueError(
                f"unknown stall category {category!r}; choose from {STALL_CATEGORIES}"
            )
        self.cycles = cycles
        self.category = category

    def __repr__(self) -> str:  # pragma: no cover
        return f"Stall({self.cycles}, {self.category!r})"
