"""User-facing synchronisation handles and helpers.

``Lock`` and ``Barrier`` wrap ids managed by the
:class:`~repro.runtime.sync.SyncManager`; their methods are generators
driven with ``yield from`` inside application worker code.
"""

from __future__ import annotations

from collections.abc import Generator

from ..sim.events import Acquire, BarrierWait, Compute, Fence, Op, Release
from .sync import SyncManager


class Lock:
    """A queue lock living at ``lock_id % nprocs``.

    ``acquire_op`` and ``release_op`` are built once: the engine only
    reads an op's ``lock_id``, so every acquire and release of this lock
    yields the same two instances.  Runtime code that flattens its
    locked regions (:mod:`repro.runtime.workqueue`) yields them directly.
    """

    __slots__ = ("manager", "lock_id", "name", "acquire_op", "release_op")

    def __init__(self, manager: SyncManager, name: str = ""):
        self.manager = manager
        self.lock_id = manager.new_lock(name)
        self.name = name
        self.acquire_op = Acquire(self.lock_id)
        self.release_op = Release(self.lock_id)

    def acquire(self) -> Generator[Op, None, None]:
        yield self.acquire_op

    def release(self) -> Generator[Op, None, None]:
        yield self.release_op


class Barrier:
    """A sense-reversing barrier over ``participants`` processors."""

    __slots__ = ("manager", "barrier_id", "name")

    def __init__(self, manager: SyncManager, participants: int | None = None, name: str = ""):
        self.manager = manager
        self.barrier_id = manager.new_barrier(participants, name)
        self.name = name

    def wait(self) -> Generator[Op, None, None]:
        yield BarrierWait(self.barrier_id)


def compute(cycles: float) -> Generator[Op, None, None]:
    """Charge ``cycles`` of computation."""
    yield Compute(cycles)


def fence() -> Generator[Op, None, None]:
    """Stand-alone release fence (drain write buffers)."""
    yield Fence()
