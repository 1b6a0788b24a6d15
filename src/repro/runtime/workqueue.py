"""Work queues built on the shared-memory runtime.

The paper's Cholesky gets its dynamic communication pattern from a
*central* work queue; Maxflow uses per-processor *local* queues that
interact with a *global* queue for load balancing.  Both are implemented
here on top of shared arrays and locks, so queue manipulation generates
real coherence traffic in the simulation.

Queue payloads are integer task ids; applications keep the task
descriptors themselves in private (read-only) metadata.
"""

from __future__ import annotations

from collections.abc import Generator

from ..sim.events import Compute, Op
from .primitives import Lock
from .sharedmem import SharedMemory
from .sync import SyncManager

#: Returned by ``get`` when the queue is momentarily empty.
EMPTY = None


class CentralQueue:
    """A lock-protected bounded FIFO in shared memory.

    ``head``/``tail`` are shared words; ``slots`` is a shared circular
    buffer.  All operations run inside the queue lock, so contention for
    the queue serialises exactly as on the real machine.

    The operations are flat: they yield the lock's prebuilt ops and the
    arrays' reusable access ops directly (the
    :meth:`~repro.runtime.sharedmem.SharedArray.hot_access` pattern), so
    no sub-generator is built per access.  The op stream is the one the
    ``SharedArray``/``Lock`` generator methods would yield.
    """

    def __init__(self, shm: SharedMemory, sync: SyncManager, capacity: int, name: str = "queue"):
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self.lock = Lock(sync, name=f"{name}.lock")
        self.slots = shm.array(capacity, name=f"{name}.slots", align_line=True)
        self.head = shm.scalar(name=f"{name}.head", fill=0)
        self.tail = shm.scalar(name=f"{name}.tail", fill=0)
        self._head = self.head.hot_access()
        self._tail = self.tail.hot_access()
        self._slots = self.slots.hot_access()

    def put(self, task: int) -> Generator[Op, None, None]:
        """Append a task id (caller must ensure the queue is not full)."""
        lock = self.lock
        hrd, _, hbase, _, hdata = self._head
        trd, twr, tbase, _, tdata = self._tail
        _, swr, sbase, sword, sdata = self._slots
        yield lock.acquire_op
        trd.addr = tbase
        yield trd
        tail = tdata[0]
        hrd.addr = hbase
        yield hrd
        head = hdata[0]
        if tail - head >= self.capacity:
            yield lock.release_op
            raise OverflowError(f"work queue {self.name!r} overflow (cap {self.capacity})")
        i = int(tail) % self.capacity
        swr.addr = sbase + i * sword
        yield swr
        sdata[i] = task
        twr.addr = tbase
        yield twr
        tdata[0] = tail + 1
        yield lock.release_op

    def get(self) -> Generator[Op, None, int | None]:
        """Pop a task id, or ``EMPTY`` if no work is available."""
        lock = self.lock
        hrd, hwr, hbase, _, hdata = self._head
        trd, _, tbase, _, tdata = self._tail
        srd, _, sbase, sword, sdata = self._slots
        yield lock.acquire_op
        hrd.addr = hbase
        yield hrd
        head = hdata[0]
        trd.addr = tbase
        yield trd
        if head == tdata[0]:
            yield lock.release_op
            return EMPTY
        i = int(head) % self.capacity
        srd.addr = sbase + i * sword
        yield srd
        task = sdata[i]
        hwr.addr = hbase
        yield hwr
        hdata[0] = head + 1
        yield lock.release_op
        return int(task)


class TaskPool:
    """Central queue + termination detection via an outstanding-task count.

    The canonical worker loop::

        while True:
            task = yield from pool.get_task()
            if task is None:
                break            # global termination
            ...process...
            for t in new_tasks:
                yield from pool.add_task(t)
            yield from pool.task_done()

    ``outstanding`` counts queued + in-flight tasks; when it reaches zero
    no task can ever appear again, so idle workers may exit.

    Like :class:`CentralQueue`, every operation is flat: ``task_done``
    is the counter bump itself, ``add_task`` the bump followed by
    :meth:`CentralQueue.put`, and ``get_task`` runs the queue's pop
    inline.
    """

    #: Busy-wait backoff between empty polls, in cycles.
    POLL_BACKOFF = 50.0

    def __init__(self, shm: SharedMemory, sync: SyncManager, capacity: int, name: str = "pool"):
        self.queue = CentralQueue(shm, sync, capacity, name=name)
        # Written only under counter_lock; the termination poll in
        # get_task reads it without the lock (intentional — a stale
        # nonzero just means one more poll round), hence relaxed reads.
        self.outstanding = shm.scalar(name=f"{name}.outstanding", fill=0, relaxed="read")
        self.counter_lock = Lock(sync, name=f"{name}.count_lock")
        # Reusable poll op: the engine consumes .cycles before the
        # generator resumes and never mutates the op.
        self._poll_op = Compute(self.POLL_BACKOFF)
        self._outstanding = self.outstanding.hot_access()

    def seed(self, tasks: list[int]) -> None:
        """Pre-load tasks before the simulation starts (setup time)."""
        head = int(self.queue.head.value())
        tail = int(self.queue.tail.value())
        if tail - head + len(tasks) > self.queue.capacity:
            raise OverflowError("seeding beyond queue capacity")
        for k, t in enumerate(tasks):
            self.queue.slots.poke((tail + k) % self.queue.capacity, t)
        self.queue.tail.poke(0, tail + len(tasks))
        self.outstanding.poke(0, self.outstanding.value() + len(tasks))

    def add_task(self, task: int) -> Generator[Op, None, None]:
        # Two flat steps, one delegation each, rather than a second copy
        # of the put logic: add_task runs once per task, while
        # get_task's pop (inlined below) runs once per poll round.
        yield from self._bump(1)
        yield from self.queue.put(task)

    def task_done(self) -> Generator[Op, None, None]:
        return self._bump(-1)

    def _bump(self, delta: int) -> Generator[Op, None, None]:
        """``outstanding += delta`` under the counter lock."""
        lock = self.counter_lock
        ord_, owr, obase, _, odata = self._outstanding
        yield lock.acquire_op
        ord_.addr = obase
        yield ord_
        value = odata[0] + delta
        owr.addr = obase
        yield owr
        odata[0] = value
        yield lock.release_op

    def get_task(self) -> Generator[Op, None, int | None]:
        """Blocking pop: polls until a task arrives or all work is done.

        Runs :meth:`CentralQueue.get` inline: an idle worker repeats
        the pop once per poll round.
        """
        queue = self.queue
        lock = queue.lock
        capacity = queue.capacity
        hrd, hwr, hbase, _, hdata = queue._head
        trd, _, tbase, _, tdata = queue._tail
        srd, _, sbase, sword, sdata = queue._slots
        ord_, _, obase, _, odata = self._outstanding
        while True:
            yield lock.acquire_op
            hrd.addr = hbase
            yield hrd
            head = hdata[0]
            trd.addr = tbase
            yield trd
            if head != tdata[0]:
                i = int(head) % capacity
                srd.addr = sbase + i * sword
                yield srd
                task = sdata[i]
                hwr.addr = hbase
                yield hwr
                hdata[0] = head + 1
                yield lock.release_op
                return int(task)
            yield lock.release_op
            ord_.addr = obase
            yield ord_
            if odata[0] <= 0:
                return None
            yield self._poll_op
