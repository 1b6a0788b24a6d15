"""Central work queue and task pool."""

import pytest

from repro.config import MachineConfig
from repro.runtime import CentralQueue, Machine, TaskPool
from repro.sim.events import Compute


def machine(nprocs=4, system="RCinv"):
    return Machine(MachineConfig(nprocs=nprocs), system)


class TestCentralQueue:
    def test_fifo_single_producer(self):
        m = machine(2)
        q = CentralQueue(m.shm, m.sync, capacity=16)
        got = []

        def worker(ctx):
            if ctx.pid == 0:
                for t in (5, 7, 9):
                    yield from q.put(t)
            else:
                yield from ctx.compute(50000)
                for _ in range(3):
                    got.append((yield from q.get()))
                got.append((yield from q.get()))

        m.run(worker)
        assert got == [5, 7, 9, None]

    def test_empty_get_returns_none(self):
        m = machine(1)
        q = CentralQueue(m.shm, m.sync, capacity=4)
        got = []

        def worker(ctx):
            got.append((yield from q.get()))

        m.run(worker)
        assert got == [None]

    def test_overflow_raises(self):
        m = machine(1)
        q = CentralQueue(m.shm, m.sync, capacity=2)

        def worker(ctx):
            yield from q.put(1)
            yield from q.put(2)
            yield from q.put(3)

        with pytest.raises(OverflowError):
            m.run(worker)

    def test_wraparound(self):
        m = machine(1)
        q = CentralQueue(m.shm, m.sync, capacity=2)
        got = []

        def worker(ctx):
            for t in range(6):
                yield from q.put(t)
                got.append((yield from q.get()))

        m.run(worker)
        assert got == list(range(6))

    def test_capacity_validation(self):
        m = machine(1)
        with pytest.raises(ValueError):
            CentralQueue(m.shm, m.sync, capacity=0)

    def test_concurrent_producers_consumers_conserve_items(self):
        m = machine(4)
        q = CentralQueue(m.shm, m.sync, capacity=64)
        consumed = []

        def worker(ctx):
            if ctx.pid < 2:
                for i in range(8):
                    yield from q.put(ctx.pid * 100 + i)
            else:
                for _ in range(20):
                    t = yield from q.get()
                    if t is not None:
                        consumed.append(t)
                    yield Compute(100)

        m.run(worker)
        assert len(consumed) == len(set(consumed)) <= 16


class TestTaskPool:
    def test_seed_and_drain(self):
        m = machine(2)
        pool = TaskPool(m.shm, m.sync, capacity=8)
        pool.seed([1, 2, 3])
        done = []

        def worker(ctx):
            while True:
                t = yield from pool.get_task()
                if t is None:
                    break
                done.append(t)
                yield Compute(10)
                yield from pool.task_done()

        m.run(worker)
        assert sorted(done) == [1, 2, 3]

    def test_dynamic_task_creation(self):
        """Tasks spawning tasks: all must be executed exactly once."""
        m = machine(4)
        pool = TaskPool(m.shm, m.sync, capacity=64)
        pool.seed([1])
        done = []

        def worker(ctx):
            while True:
                t = yield from pool.get_task()
                if t is None:
                    break
                done.append(t)
                if t < 16:
                    yield from pool.add_task(2 * t)
                    yield from pool.add_task(2 * t + 1)
                yield from pool.task_done()

        m.run(worker)
        assert sorted(done) == list(range(1, 32))

    def test_workers_terminate_when_empty(self):
        m = machine(4)
        pool = TaskPool(m.shm, m.sync, capacity=8)
        # no seed: all workers must exit immediately

        def worker(ctx):
            t = yield from pool.get_task()
            assert t is None

        m.run(worker)

    def test_seed_overflow_checked(self):
        m = machine(1)
        pool = TaskPool(m.shm, m.sync, capacity=2)
        with pytest.raises(OverflowError):
            pool.seed([1, 2, 3])


# -- op streams ----------------------------------------------------------------
# The queue, pool and Maxflow/Cholesky locked regions yield their ops
# directly instead of through SharedArray/Lock sub-generators.  These
# tests pin the exact op stream, which must be the one the generator
# methods yield: (op class, address / lock id / cycles) per op, driven
# single-threaded outside the engine.


def _key(op):
    for attr in ("addr", "lock_id", "barrier_id", "cycles", "label"):
        if hasattr(op, attr):
            return op.__class__.__name__, getattr(op, attr)
    return op.__class__.__name__, None


def _drive(gen, out, on_op=None):
    """Run ``gen`` to completion, appending each op's key to ``out``."""
    try:
        while True:
            op = gen.send(None)
            out.append(_key(op))
            if on_op is not None:
                on_op(op)
    except StopIteration as stop:
        return stop.value


def test_primitive_op_stream():
    from repro.runtime.primitives import Lock

    m = machine(4)
    lock = Lock(m.sync, name="l")
    q = CentralQueue(m.shm, m.sync, capacity=2, name="q")
    pool = TaskPool(m.shm, m.sync, capacity=4, name="p")
    ql, qh, qt = q.lock.lock_id, q.head.base, q.tail.base
    pq = pool.queue
    pl, ph, pt = pq.lock.lock_id, pq.head.base, pq.tail.base
    cl, po = pool.counter_lock.lock_id, pool.outstanding.base

    def put(slot):
        return [("Acquire", ql), ("Read", qt), ("Read", qh),
                ("Write", q.slots.addr(slot)), ("Write", qt), ("Release", ql)]

    def get(slot):
        return [("Acquire", ql), ("Read", qh), ("Read", qt),
                ("Read", q.slots.addr(slot)), ("Write", qh), ("Release", ql)]

    def pool_pop(slot):
        return [("Acquire", pl), ("Read", ph), ("Read", pt),
                ("Read", pq.slots.addr(slot)), ("Write", ph), ("Release", pl)]

    pool_empty = [("Acquire", pl), ("Read", ph), ("Read", pt), ("Release", pl),
                  ("Read", po)]
    bump = [("Acquire", cl), ("Read", po), ("Write", po), ("Release", cl)]

    out, got = [], []
    _drive(lock.acquire(), out)
    _drive(lock.release(), out)
    expected = [("Acquire", lock.lock_id), ("Release", lock.lock_id)]
    _drive(q.put(5), out)
    _drive(q.put(7), out)
    expected += put(0) + put(1)
    with pytest.raises(OverflowError):
        _drive(q.put(9), out)
    expected += [("Acquire", ql), ("Read", qt), ("Read", qh), ("Release", ql)]
    got.append(_drive(q.get(), out))
    expected += get(0)
    _drive(q.put(11), out)
    expected += put(0)
    for _ in range(3):
        got.append(_drive(q.get(), out))
    expected += get(1) + get(0) + [("Acquire", ql), ("Read", qh), ("Read", qt),
                                   ("Release", ql)]
    _drive(pool.add_task(3), out)
    expected += bump + [("Acquire", pl), ("Read", pt), ("Read", ph),
                        ("Write", pq.slots.addr(0)), ("Write", pt), ("Release", pl)]
    got.append(_drive(pool.get_task(), out))
    expected += pool_pop(0)
    _drive(pool.task_done(), out)
    expected += bump
    got.append(_drive(pool.get_task(), out))
    expected += pool_empty
    # An idle poll round, then a task arrives during the backoff.
    pool.outstanding.poke(0, 1)

    def refill(op):
        if isinstance(op, Compute):
            pool.seed([4])

    got.append(_drive(pool.get_task(), out, refill))
    expected += pool_empty + [("Compute", TaskPool.POLL_BACKOFF)] + pool_pop(1)

    assert got == [5, 7, 11, None, 3, None, 4]
    assert out == expected


def _digest(stream) -> tuple[int, str]:
    import hashlib

    return len(stream), hashlib.sha256(repr(stream).encode()).hexdigest()[:16]


def test_maxflow_locked_region_op_stream():
    """A relabel, a waking push, then every discharge to completion."""
    from repro.apps import preset
    from repro.runtime.context import AppContext

    app = preset("smoke")["Maxflow"][0]()
    m = machine(16)
    app.setup(m)
    ctx = AppContext(0, m.config, m.shm, m.sync)
    net = app.net
    v = app._seeds[0][0]
    out, got = [], []
    got.append(_drive(app._relabel(v), out))
    hv = app.height.peek(v)
    e = next(
        e for e in net.adj[v]
        if app.height.peek(net.head[e]) == hv - 1
        and app.cap.peek(e) - app.flow.peek(e) > 0
        and app.excess.peek(net.head[e]) == 0
        and net.head[e] not in (net.source, net.sink)
    )
    woke = _drive(app._push(v, net.head[e], e), out)
    assert woke == net.head[e]
    work = [w for seeds in app._seeds for w in seeds] + [woke]
    while work:
        newly = _drive(app._discharge(ctx, work.pop(0)), out)
        got.append(newly)
        work.extend(newly)
    app.verify()
    assert app.active_count.peek(0) == 0
    assert got[0] is True
    # Recorded on the generator-method implementation.
    assert _digest(out) == (7514, "d73eb7e5a6b27f19")


def test_cholesky_worker_op_stream():
    """One processor factors the whole smoke matrix through the pool."""
    from repro.apps import preset
    from repro.runtime.context import AppContext

    app = preset("smoke")["Cholesky"][0]()
    m = machine(1)
    app.setup(m)
    out = []
    _drive(app.worker(AppContext(0, m.config, m.shm, m.sync)), out)
    app.verify()
    # Recorded on the generator-method implementation.
    assert _digest(out) == (962, "5b3afecb8ede69b1")


@pytest.mark.parametrize(
    "app,ops,digest",
    [("Cholesky", 4772, "ee6974fdb29ca196"), ("Maxflow", 94978, "49dde833fa8ba721")],
)
def test_locked_regions_under_contention(app, ops, digest):
    """P=16 at small scale, where processors interleave inside the
    flattened regions: an access op's ``addr`` set before the wrong
    ``yield`` (another processor's access to the same array can retarget
    it in between) changes these outcomes, which the single-threaded
    streams above cannot see."""
    import hashlib
    import json

    from repro.apps import preset
    from repro.sim.reference import run_case

    outcome = run_case(preset("small")[app][0], "RCinv")
    got = hashlib.sha256(json.dumps(outcome, sort_keys=True).encode()).hexdigest()[:16]
    # Recorded on the generator-method implementation.
    assert (outcome["ops"], got) == (ops, digest)
