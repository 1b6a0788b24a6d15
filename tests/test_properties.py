"""Property-based tests (hypothesis) for core invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import MachineConfig
from repro.mem.buffers import MergeBuffer, StoreBuffer
from repro.mem.directory import DirEntry
from repro.network.routed import RoutedNetwork
from repro.network.topology import Hypercube, Mesh2D, Ring, Torus2D
from repro.runtime import Machine


# ----------------------------------------------------------------------
# topology properties
# ----------------------------------------------------------------------
@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    data=st.data(),
)
def test_mesh_route_connects_endpoints(rows, cols, data):
    m = Mesh2D(rows, cols)
    s = data.draw(st.integers(0, m.nnodes - 1))
    d = data.draw(st.integers(0, m.nnodes - 1))
    route = m.route(s, d)
    cur = s
    for a, b in route:
        assert a == cur
        cur = b
    assert cur == d


@given(rows=st.integers(1, 5), cols=st.integers(1, 5), data=st.data())
def test_torus_never_longer_than_mesh(rows, cols, data):
    t, m = Torus2D(rows, cols), Mesh2D(rows, cols)
    s = data.draw(st.integers(0, rows * cols - 1))
    d = data.draw(st.integers(0, rows * cols - 1))
    assert t.hops(s, d) <= m.hops(s, d)


@given(n=st.integers(2, 16), data=st.data())
def test_ring_route_at_most_half(n, data):
    r = Ring(n)
    s = data.draw(st.integers(0, n - 1))
    d = data.draw(st.integers(0, n - 1))
    assert r.hops(s, d) <= n // 2


@given(bits=st.integers(1, 5), data=st.data())
def test_hypercube_routes_symmetric_length(bits, data):
    h = Hypercube(1 << bits)
    s = data.draw(st.integers(0, h.nnodes - 1))
    d = data.draw(st.integers(0, h.nnodes - 1))
    assert h.hops(s, d) == h.hops(d, s)


# ----------------------------------------------------------------------
# network properties
# ----------------------------------------------------------------------
@given(
    starts=st.lists(st.floats(0, 1e4), min_size=1, max_size=20),
    nbytes=st.integers(1, 128),
)
def test_network_arrivals_after_injection(starts, nbytes):
    net = RoutedNetwork(Mesh2D(2, 2), cycles_per_byte=1.6)
    for t in starts:
        arrival = net.transfer(0, 3, nbytes, t)
        assert arrival >= t + net.min_latency(0, 3, nbytes) - 1e-9


@given(seq=st.lists(st.integers(1, 64), min_size=2, max_size=20))
def test_same_link_fifo_ordering(seq):
    """Messages injected in time order on one link arrive in order."""
    net = RoutedNetwork(Mesh2D(1, 2), cycles_per_byte=1.0)
    last = -1.0
    t = 0.0
    for nbytes in seq:
        arrival = net.transfer(0, 1, nbytes, t)
        assert arrival > last
        last = arrival
        t += 1.0


# ----------------------------------------------------------------------
# buffer properties
# ----------------------------------------------------------------------
@given(
    latencies=st.lists(st.floats(1, 500), min_size=1, max_size=30),
    capacity=st.integers(1, 8),
)
def test_store_buffer_retires_in_fifo_and_flush_covers_all(latencies, capacity):
    sb = StoreBuffer(capacity)
    t = 0.0
    retire_expected = 0.0
    for lat in latencies:
        proceed, stall = sb.push(t, lambda proc, block, nwords, s, lat=lat: s + lat, 0, 0)
        assert proceed >= t
        assert stall >= 0.0
        t = proceed + 1.0
    done, stall = sb.flush(t)
    assert done >= t
    assert sb.occupancy(done) == 0


@given(
    writes=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 7)), min_size=1, max_size=50),
    capacity=st.integers(1, 3),
)
def test_merge_buffer_conserves_lines(writes, capacity):
    """Every distinct written line is either still open or was evicted."""
    mb = MergeBuffer(capacity)
    evicted = []
    for block, word in writes:
        e = mb.write(block, word, 0.0)
        if e is not None:
            evicted.append(e.block)
    final = [e.block for e in mb.flush_all()]
    # each written block appears among evictions+final at least once
    for block, _ in writes:
        assert block in evicted or block in final
    assert len(final) <= capacity


# ----------------------------------------------------------------------
# directory properties
# ----------------------------------------------------------------------
@given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 31)), max_size=60))
def test_direntry_bitmask_matches_set_model(ops):
    e = DirEntry()
    model = set()
    for add, p in ops:
        if add:
            e.add_sharer(p)
            model.add(p)
        else:
            e.remove_sharer(p)
            model.discard(p)
    assert e.sharer_list() == sorted(model)
    assert e.num_sharers() == len(model)


# ----------------------------------------------------------------------
# end-to-end determinism and value correctness
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    system=st.sampled_from(["z-mc", "RCinv", "RCupd", "RCadapt", "RCcomp"]),
)
def test_parallel_sum_matches_serial(seed, system):
    """Random data, lock-protected reduction: result must equal numpy."""
    rng = np.random.default_rng(seed)
    data = [int(v) for v in rng.integers(0, 100, size=16)]

    def build():
        machine = Machine(MachineConfig(nprocs=4), system)
        arr = machine.shm.array(16, "a")
        arr.poke_many(data)
        total = machine.shm.scalar("sum", fill=0)
        from repro.runtime import Barrier, Lock

        lock = Lock(machine.sync)
        bar = Barrier(machine.sync)

        def worker(ctx):
            lo = ctx.pid * 4
            vals = yield from arr.read_range(lo, lo + 4)
            part = sum(vals)
            yield from lock.acquire()
            yield from total.incr(part)
            yield from lock.release()
            yield from bar.wait()

        res = machine.run(worker)
        return total.value(), res.total_time

    v1, t1 = build()
    v2, t2 = build()
    assert v1 == v2 == sum(data)
    assert t1 == t2  # deterministic simulation
