"""How the interval-metrics collector stores what it folds.

The buckets at the fold's cursor stay lists; the ones behind it close
into one typed array per category, and every crossing sample appends to
a typed column.  The export must read exactly what a plain
dict-of-lists fold reads (:class:`tests.oracles.ReferenceMetrics`),
deposits that reach back into closed buckets included, and a run must
keep typed columns whose bytes grow by a fixed amount per bucket.
"""

from __future__ import annotations

import json
import sys
from array import array
from functools import partial
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.apps.base import run_machine
from repro.apps.presets import default_scale, small_scale
from repro.config import MachineConfig
from repro.network.base import NetStats
from repro.obs.metrics import CATEGORIES, MetricsCollector
from repro.sim import trace
from repro.sim.stats import AccessResult, SyncPoint

from .oracles import ReferenceMetrics


class _Network:
    def __init__(self):
        self.stats = NetStats()


class _Engine:
    depth = 0

    def queue_depth(self) -> int:
        return self.depth


class _StoreBuffer:
    def __init__(self):
        self._pending = []


class _Memsys:
    """Per-proc store buffers and, with ``merge``, merge buffers."""

    def __init__(self, nprocs: int, merge: bool):
        self.store_buffers = [_StoreBuffer() for _ in range(nprocs)]
        if merge:
            self.merge_buffers = [[] for _ in range(nprocs)]


_PROCS = st.integers(0, 63)
_SPANS = st.tuples(
    st.just("span"),
    st.sampled_from(["busy", "wait", "read", "write", "flush", "sync"]),
    _PROCS,
    st.sampled_from([0.0, 0.3, 1.0, 2.5, 6.0, 11.0]),  # start, intervals before now
    st.sampled_from([0.0, 0.25, 1.0, 1.5, 4.0, 9.0]),  # length, intervals
    st.booleans(),  # end exactly on a boundary
)
_ACCESSES = st.tuples(
    st.just("access"),
    _PROCS,
    st.sampled_from(["read", "write", "read_nb", "acquire", "release"]),
    st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0]),  # latency, intervals
    st.sampled_from([(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.0, 0.25, 0.25), (0.1, 0.2, 0.3)]),
    st.sampled_from([0.0, 1.0]),  # busy cycles
)
_STEPS = st.one_of(
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0, 3.0, 7.5])),
    _SPANS,
    _SPANS,
    _ACCESSES,
    st.tuples(st.just("phase"), _PROCS, st.sampled_from(["a", "b"])),
    st.tuples(
        st.just("gauges"), st.integers(0, 3), st.sampled_from([0.0, 1.5]),
        st.integers(0, 9), _PROCS, st.integers(0, 4),
    ),
    st.tuples(st.just("flush")),
    st.tuples(st.just("export")),
)


@st.composite
def _runs(draw):
    nprocs = draw(st.sampled_from([1, 16, 64]))
    interval = draw(st.sampled_from([1.0, 37.5, 0.1, 2.6]))
    gauges = draw(st.sampled_from([None, "store", "both"]))
    return nprocs, interval, gauges, draw(st.lists(_STEPS, max_size=80))


def _feed(nprocs, interval, gauges, steps):
    """Feed ``steps`` to a collector and to the reference fold, call for
    call; returns both, having compared every mid-run export."""
    w = interval
    network = memsys = engine = None
    if gauges is not None:
        network, engine = _Network(), _Engine()
        memsys = _Memsys(nprocs, merge=gauges == "both")
    views = [
        cls(nprocs, interval, network=network, memsys=memsys, engine=engine)
        for cls in (MetricsCollector, ReferenceMetrics)
    ]
    now = 0.0
    for step in steps:
        tag = step[0]
        if tag == "advance":
            now += step[1] * w
            continue
        if tag == "gauges":
            _, messages, latency, depth, proc, pending = step
            if network is not None:
                network.stats.messages += messages
                network.stats.bytes += 40 * messages
                network.stats.latency_cycles += latency
                engine.depth = depth
                memsys.store_buffers[proc % nprocs]._pending = [None] * pending
                if gauges == "both":
                    memsys.merge_buffers[-1 - proc % nprocs][:] = [None] * (4 - pending)
            continue
        if tag == "flush":
            for view in views:
                view._log.flush()
            continue
        if tag == "export":
            _same(*views)
            continue
        if tag == "span":
            _, kind, proc, back, length, on_boundary = step
            start = max(0.0, now - back * w)
            cycles = length * w
            if on_boundary:
                cycles = (int(start // w) + 1 + int(length)) * w - start
            for view in views:
                if kind == "busy":
                    view.on_busy(proc % nprocs, start, cycles)
                elif kind == "wait":
                    view.on_sync_wait(proc % nprocs, start, cycles)
                else:
                    view.on_stall(proc % nprocs, start, cycles, kind)
        elif tag == "access":
            _, proc, kind, latency, (rs, ws, bf), busy = step
            latency *= w
            stalls = (rs * latency, ws * latency, bf * latency)
            target = SyncPoint("lock", proc % 3) if kind in ("acquire", "release") else 8 * proc
            for view in views:
                res = AccessResult(
                    now + latency, read_stall=stalls[0], write_stall=stalls[1],
                    buffer_flush=stalls[2],
                )
                view.on_access(proc % nprocs, kind, target, now, res, busy)
        else:
            for view in views:
                view.on_phase(step[1] % nprocs, now, step[2])
    return views


def _same(collector, reference):
    """Equal exports and totals, the same ints and floats included."""
    doc, want = collector.to_dict(), reference.to_dict()
    assert doc == want
    assert json.dumps(doc) == json.dumps(want)
    assert collector.totals() == reference.totals()
    assert repr(collector.totals()) == repr(reference.totals())


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_runs())
@example((1, 1.0, None, [
    # Bucket 0 closes when the fold sees the cursor at bucket 5; a wait
    # that started in it then reaches back.
    ("span", "busy", 0, 0.0, 0.5, False),
    ("advance", 5.0),
    ("span", "busy", 0, 0.0, 0.5, False),
    ("flush",),
    ("span", "wait", 0, 5.0, 5.0, False),
    ("span", "read", 0, 5.0, 0.0, True),
]))
@example((16, 37.5, "both", [
    # A crossing, a mid-run export that credits accesses to the cursor,
    # then more accesses credited to that same cursor at the next one.
    ("gauges", 2, 1.5, 3, 5, 2),
    ("access", 5, "write", 0.5, (0.5, 0.0, 0.0), 1.0),
    ("advance", 1.0),
    ("access", 6, "read", 0.1, (0.0, 0.25, 0.25), 0.0),
    ("export",),
    ("access", 7, "read", 0.1, (0.1, 0.2, 0.3), 1.0),
    ("gauges", 1, 0.0, 4, 7, 1),
    ("advance", 1.0),
    ("access", 7, "read", 0.1, (0.1, 0.2, 0.3), 1.0),
    ("flush",),
    ("span", "wait", 3, 11.0, 9.0, True),
]))
def test_export_matches_dict_of_lists_reference(run):
    """Long waits and stalls that start in closed buckets, spans ending
    on a boundary or of zero length, mid-run exports, non-integer
    intervals, P of 1, 16 and 64: the exported document and the totals
    equal the reference fold's, and the buckets behind the cursor are
    closed."""
    nprocs, interval, gauges, steps = run
    with mock.patch.object(trace, "_CHUNK", 5):
        collector, reference = _feed(nprocs, interval, gauges, steps)
        _same(collector, reference)
    assert all(index >= collector._cursor - 1 for index in collector._open)


@pytest.mark.parametrize("app,system", [("Cholesky", "RCupd"), ("IS", "RCinv")])
def test_attached_collector_matches_reference(app, system):
    """Attached to one machine, the collector and the reference fold
    sample the same gauges and export the same document."""
    _, _, collector, reference = run_machine(
        small_scale()[app][0](), system, MachineConfig(nprocs=8), verify=False,
        attach=(
            partial(MetricsCollector.attach, interval=37.5),
            lambda machine: ReferenceMetrics(
                8, 37.5, network=machine.network, memsys=machine.engine.memsys,
                engine=machine.engine,
            )._share(machine),
        ),
    )
    _same(collector, reference)


def test_storage_is_typed_and_bounded_per_bucket():
    """Cholesky on RCupd at a 50-cycle interval crosses thousands of
    buckets: every stored column is an ``array``, at most two buckets
    are lists, and the columns hold 5 * 8 * P bytes of cells and 16
    bytes of keys per bucket, plus per crossing 4 * P bytes per buffer
    kind and 68 bytes of counters, with CPython's 1/16 growth slack."""
    nprocs = 16
    _, result, collector = run_machine(
        default_scale()["Cholesky"][0](), "RCupd", MachineConfig(nprocs=nprocs), verify=False,
        attach=(partial(MetricsCollector.attach, interval=50.0),),
    )
    doc = collector.to_dict()
    nbuckets, ncross = len(doc["buckets"]), len(collector._entered)
    assert nbuckets > 6000 and 0 < ncross < nbuckets
    store = (
        *collector._closed, collector._slots, collector._order, collector._entered,
        *collector._net.values(), *collector._depths.values(),
        collector._access_at, collector._access_n, collector._wheel_depth,
    )
    assert all(isinstance(column, array) for column in store)
    assert set(collector._depths) == {"store_buffer", "merge_buffer"}
    assert len(collector._open) <= 2
    closed = len(collector._slots)
    assert closed == nbuckets - len(collector._open)
    cells = 8 * len(CATEGORIES) * nprocs
    held = sum(column.itemsize * len(column) for column in store)
    # Per crossing: its bucket, five network deltas, the wheel depth,
    # two buffer kinds' depths and an access count with its bucket.
    per_cross = 8 + 5 * 8 + 4 + 2 * 4 * nprocs + 16
    assert held <= cells * closed + 16 * nbuckets + per_cross * ncross
    allocated = sum(map(sys.getsizeof, store))
    assert allocated <= held * 17 / 16 + 100 * len(store)
    want = {
        cat: sum(getattr(p, cat) for p in result.procs) for cat in CATEGORIES
    }
    for cat, total in collector.totals().items():
        assert total == pytest.approx(want[cat], abs=1e-6)
