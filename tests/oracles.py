"""Independent references the tests cross-check the simulator against.

The applications verify themselves by certificate (``Maxflow.verify``:
max-flow/min-cut; ``Cholesky.verify``: the residual ``A - L Lᵀ``), so
these dense or third-party solves live here, outside the runtime
package: networkx is a test dependency only.  The routed network's
zero-load latency formula and its link reservations are read here too,
an attribution report's cells are refolded one dict per cell, and
interval metrics are refolded one dict of per-category lists per bucket.
The small readers at the top (:func:`flow_value`, :func:`hops`,
:func:`is_neutral`, :func:`attributed_totals`) read state that only the
tests ask about.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice

import numpy as np

from repro.analysis.naming import sync_label
from repro.network.routed import RoutedNetwork
from repro.network.topology import Topology
from repro.obs.attrib import (
    DATA_ROW,
    DIMENSIONS,
    OVERHEAD_CATEGORIES,
    STALL_ROW,
    STARTUP_PHASE,
    SYNC_ROW,
    UNCHARGED_ROW,
)
from repro.obs.metrics import CATEGORIES, Counter, Histogram
from repro.scenarios.inject import Degradation
from repro.sim.stats import SyncPoint
from repro.sim.trace import BUSY, PHASE, STALL, WAIT, LogView
from repro.workloads.graphs import FlowNetwork
from repro.workloads.matrices import SparseSPD


def flow_value(app) -> int:
    """Flow into the sink that a finished ``Maxflow`` run left."""
    return int(app.excess.peek(app.net.sink))


def hops(topology: Topology, src: int, dst: int) -> int:
    """Number of links a message from ``src`` to ``dst`` crosses."""
    return len(topology.route(src, dst))


def is_neutral(deg: Degradation) -> bool:
    """Whether every knob of ``deg`` is an exact identity (bit-identical
    runs)."""
    return (
        all(f == 1.0 for _, f in deg.node_cpu)
        and all(f == 1.0 for _, f in deg.node_mem)
        and all(lf == 1.0 and bf == 1.0 for _, _, lf, bf in deg.links)
        and (deg.burst_period == 0.0 or deg.burst_factor == 1.0)
    )


def attributed_totals(collector) -> dict[str, list[float]]:
    """Per-processor cycles an ``AttributionCollector`` attributed, per
    overhead category: bit-identical to ``ProcStats`` on an exact run."""
    collector._log.flush()
    return {
        cat: [acc[i] for acc in collector._acc] for i, cat in enumerate(OVERHEAD_CATEGORIES)
    }


def reference_max_flow(net: FlowNetwork) -> int:
    """Max-flow value via networkx."""
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(range(net.n))
    for e in range(net.num_arcs):
        c = int(net.cap[e])
        if c > 0:
            u, v = int(net.tail[e]), net.head[e]
            if g.has_edge(u, v):
                g[u][v]["capacity"] += c
            else:
                g.add_edge(u, v, capacity=c)
    value, _ = nx.maximum_flow(g, net.source, net.sink)
    return int(value)


def reference_cholesky(a: SparseSPD) -> np.ndarray:
    """Dense LAPACK Cholesky factor of ``a``."""
    return np.linalg.cholesky(a.dense())


def cholesky_factor(app) -> np.ndarray:
    """Dense lower-triangular L that a finished ``Cholesky`` run left in
    its shared ``lvals`` array."""
    l = np.zeros((app.n, app.n))
    flat = app.lvals.snapshot()
    for j, struct in enumerate(app.symbolic.col_struct):
        base = app._colptr[j]
        for k, i in enumerate(struct):
            l[i, j] = flat[base + k]
    return l


def min_latency(net: RoutedNetwork, src: int, dst: int, nbytes: int) -> float:
    """Zero-load latency of an ``nbytes`` message from ``src`` to ``dst``:
    a router delay per hop, then the serialisation time."""
    if src == dst:
        return 0.0
    serialise = (nbytes + net.header_bytes) * net.cycles_per_byte
    return hops(net.topology, src, dst) * net.router_delay + serialise


def link_utilisation(net: RoutedNetwork) -> dict[tuple[int, int], float]:
    """Latest reservation horizon per directed link the network has
    built (0.0 for one that has carried nothing yet: a fan-out builds
    its source's routes to every node)."""
    free = net._link_free
    return {link: free[lid] for link, lid in net._link_ids.items()}


def reference_attribution(calls, line_size: int, home_of=None) -> dict:
    """What an attribution report holds, refolded with one plain
    ``[read_stall, write_stall, buffer_flush, count]`` dict entry per
    (phase, data block / sync object / Stall ops) cell.

    ``calls`` are the collector's callbacks in feed order:
    ``("access", proc, kind, target, rs, ws, bf)``, ``("stall", proc,
    cycles, category)`` and ``("phase", proc, label)``.  Returns the
    emitted ``cells`` in report order (named ``block:<n>``, as with no
    shared memory attached), each dimension's rows as ``{key: [rs, ws,
    bf, count]}``, the ``uncharged`` event count and ``data_cells``.
    """
    categories = ("read", "write", "flush")
    phase_ids = {STARTUP_PHASE: 0}
    current: dict[int, str] = {}
    cells: dict[tuple, list] = {}
    for call in calls:
        tag, proc = call[0], call[1]
        phase = current.get(proc, STARTUP_PHASE)
        if tag == "phase":
            current[proc] = call[2]
            phase_ids.setdefault(call[2], len(phase_ids))
            continue
        if tag == "stall":
            _, _, cycles, category = call
            if category in categories:
                cell = cells.setdefault((phase, "stall", ()), [0.0, 0.0, 0.0, 0])
                cell[categories.index(category)] += cycles
                cell[3] += 1
            continue
        _, _, kind, target, rs, ws, bf = call
        if isinstance(target, SyncPoint):
            key = (phase, "sync", (target.kind, target.sync_id))
        else:
            key = (phase, "data", (target // line_size,))
        cell = cells.setdefault(key, [0.0, 0.0, 0.0, 0])
        cell[3] += 1
        if kind != "read_nb":  # a non-blocking read is never charged
            cell[0] += rs
            cell[1] += ws
            cell[2] += bf

    kinds = ("data", "sync", "stall")
    charged = sorted(
        (key for key, row in cells.items() if any(row[:3])),
        key=lambda key: (kinds.index(key[1]), phase_ids[key[0]], key[2]),
    )
    emitted = []
    dims: dict[str, dict[str, list]] = {dim: {} for dim in DIMENSIONS}
    for phase, kind, ident in charged:
        row = cells[(phase, kind, ident)]
        if kind == "data":
            block = ident[0]
            name = f"block:{block}"
            home = home_of(block) if home_of is not None else None
            entry = {"key": name, "name": name, "block": block, "home": home}
            node = f"node {home}" if home is not None else "(no home)"
            keys = (name, DATA_ROW, phase, node)
        elif kind == "sync":
            sync_kind, sync_id = ident
            label = sync_kind if sync_id < 0 else sync_label(sync_kind, "", sync_id)
            entry = {
                "key": label, "name": label, "sync_kind": sync_kind,
                "sync_id": sync_id, "home": None,
            }
            keys = (SYNC_ROW, label, phase, SYNC_ROW)
        else:
            entry = {"key": STALL_ROW, "name": STALL_ROW, "home": None}
            keys = (STALL_ROW, STALL_ROW, phase, STALL_ROW)
        emitted.append({
            "phase": phase, "kind": kind, **entry,
            "read_stall": row[0], "write_stall": row[1], "buffer_flush": row[2],
            "count": row[3],
        })
        for dim, key in zip(DIMENSIONS, keys):
            fold = dims[dim].setdefault(key, [0.0, 0.0, 0.0, 0])
            for i in range(4):
                fold[i] += row[i]
    uncharged = sum(row[3] for row in cells.values() if not any(row[:3]))
    if uncharged:
        for rows in dims.values():
            rows[UNCHARGED_ROW] = [0.0, 0.0, 0.0, uncharged]
    return {
        "cells": emitted,
        "dims": dims,
        "uncharged": uncharged,
        "data_cells": sum(1 for _, kind, _ in cells if kind == "data"),
    }


class ReferenceMetrics(LogView):
    """:class:`repro.obs.metrics.MetricsCollector` with every bucket a
    ``{category: [per-proc cycles]}`` dict and every crossing sample in
    a dict keyed by bucket: the same fold and the same additions, in the
    same order, so ``to_dict()`` and ``totals()`` must equal the
    collector's exactly.  Built directly, it is fed by hand like the
    collector (``on_busy``, ``on_access``, ...).
    """

    _folds_spans = True
    _stall_category = {
        "read": "read_stall", "write": "write_stall", "flush": "buffer_flush", "sync": "sync_wait",
    }

    def __init__(self, nprocs: int, interval: float, network=None, memsys=None, engine=None):
        self.nprocs = nprocs
        self.interval = float(interval)
        self.network = network
        self.memsys = memsys
        self._buckets: dict[int, dict[str, list[float]]] = {}
        self._net_delta: dict[int, dict[str, float]] = {}
        self._depths: dict[int, dict[str, list[int]]] = {}
        self._access_delta: dict[int, int] = {}
        self._last_accesses = 0
        self._engine = engine
        self._wheel_depth: dict[int, int] = {}
        self._cursor = 0
        self._next_boundary = self.interval
        self._crossings: list[tuple[int, int]] = []
        self._last_net = network.stats.snapshot() if network is not None else None
        self._latency = Histogram("access_latency_cycles")
        self._accesses = Counter("accesses")
        self._sync_events = Counter("sync_events")
        self._phases: list[tuple[float, int, str]] = []
        super().__init__()

    def _bucket(self, index: int) -> dict[str, list[float]]:
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = {cat: [0.0] * self.nprocs for cat in CATEGORIES}
            self._buckets[index] = bucket
        return bucket

    def _cross(self, t: float, row: int) -> None:
        b = int(t // self.interval)
        if b <= self._cursor:
            return
        if self._last_net is not None:
            snap = self.network.stats.snapshot()
            delta = {k: snap[k] - self._last_net[k] for k in snap}
            old = self._net_delta.get(self._cursor)
            if old is not None:
                for k, v in delta.items():
                    old[k] += v
            else:
                self._net_delta[self._cursor] = delta
            self._last_net = snap
        self._crossings.append((row, self._cursor))
        if self._engine is not None:
            self._wheel_depth[b] = self._engine.queue_depth()
        depths = {}
        store = getattr(self.memsys, "store_buffers", None)
        if store is not None:
            depths["store_buffer"] = [len(sb._pending) for sb in store]
        merge = getattr(self.memsys, "merge_buffers", None)
        if merge is not None:
            depths["merge_buffer"] = [len(mb) for mb in merge]
        if depths:
            self._depths[b] = depths
        self._cursor = b
        self._next_boundary = (b + 1) * self.interval

    def _accrue_accesses(self, bucket: int) -> None:
        acc = self._accesses.value
        if acc != self._last_accesses:
            cur = self._access_delta.get(bucket, 0)
            self._access_delta[bucket] = cur + acc - self._last_accesses
            self._last_accesses = acc

    def _spread(self, proc: int, start: float, dur: float, cat: str, amount: float) -> None:
        w = self.interval
        b0 = int(start // w)
        if dur > 0.0:
            end = start + dur
            b1 = int(end // w)
            if b1 * w == end:
                b1 -= 1
            if b1 != b0:
                rate = amount / dur
                assigned = 0.0
                for b in range(b0, b1):
                    lo = start if b == b0 else b * w
                    share = rate * ((b + 1) * w - lo)
                    self._bucket(b)[cat][proc] += share
                    assigned += share
                self._bucket(b1)[cat][proc] += amount - assigned
                return
        self._bucket(b0)[cat][proc] += amount

    def _fold(self, rows: list[tuple]) -> None:
        w = self.interval
        bucket = self._bucket
        spread = self._spread
        hist = self._latency
        marks = self._crossings
        marks.append((len(rows), -1))
        it = iter(rows)
        done = 0
        for row_end, due in marks:
            for row in islice(it, row_end - done):
                kind = row[0]
                if kind is BUSY:
                    _, proc, start, cycles = row
                    b0 = int(start // w)
                    if start + cycles <= (b0 + 1) * w:
                        bucket(b0)["busy"][proc] += cycles
                    else:
                        spread(proc, start, cycles, "busy", cycles)
                elif kind is WAIT or kind is STALL:
                    proc, start, cycles = row[1], row[2], row[3]
                    cat = "sync_wait" if kind is WAIT else self._stall_category[row[4]]
                    b0 = int(start // w)
                    if cycles > 0.0:
                        end = start + cycles
                        b1 = int(end // w)
                        if b1 * w == end:
                            b1 -= 1
                        if b1 != b0:
                            spread(proc, start, cycles, cat, cycles)
                            continue
                    bucket(b0)[cat][proc] += cycles
                elif kind is PHASE:
                    self._phases.append((row[3], row[1], row[2]))
                else:
                    _, proc, target, issue, complete, rs, ws, bf, _, busy = row
                    if target.__class__ is SyncPoint:
                        self._sync_events.value += 1
                    elif kind == "read_nb":
                        continue
                    if complete <= issue:
                        continue
                    latency = complete - issue
                    self._accesses.value += 1
                    hist.count += 1
                    hist.sum += latency
                    hist.counts[bisect_left(hist.bounds, latency)] += 1
                    b0 = int(issue // w)
                    if rs != 0.0 or ws != 0.0 or bf != 0.0:
                        end = issue + latency
                        b1 = int(end // w)
                        if b1 * w == end:
                            b1 -= 1
                        if b0 == b1:
                            cells = bucket(b0)
                            for cat, amount in (
                                ("busy", busy), ("read_stall", rs),
                                ("write_stall", ws), ("buffer_flush", bf),
                            ):
                                if amount > 0.0:
                                    cells[cat][proc] += amount
                        else:
                            for cat, amount in (
                                ("busy", busy), ("read_stall", rs),
                                ("write_stall", ws), ("buffer_flush", bf),
                            ):
                                if amount > 0.0:
                                    spread(proc, issue, latency, cat, amount)
                    elif complete <= (b0 + 1) * w:
                        bucket(b0)["busy"][proc] += busy
                    else:
                        spread(proc, issue, latency, "busy", busy)
            done = row_end
            if due >= 0:
                self._accrue_accesses(due)
        marks.clear()

    def totals(self) -> dict[str, float]:
        self._log.flush()
        out = dict.fromkeys(CATEGORIES, 0.0)
        for bucket in self._buckets.values():
            for cat in CATEGORIES:
                out[cat] += sum(bucket[cat])
        return out

    def to_dict(self) -> dict:
        self._log.flush()
        self._accrue_accesses(self._cursor)
        buckets = []
        for index in sorted(self._buckets):
            cells = self._buckets[index]
            entry: dict = {
                "index": index,
                "t0": index * self.interval,
                "t1": (index + 1) * self.interval,
            }
            for cat in CATEGORIES:
                entry[cat] = list(cells[cat])
            net = self._net_delta.get(index)
            if net is not None:
                entry["network"] = dict(net)
            depths = self._depths.get(index)
            if depths is not None:
                entry["buffer_depth"] = depths
            accesses = self._access_delta.get(index)
            if accesses is not None:
                entry["accesses"] = accesses
            wheel = self._wheel_depth.get(index)
            if wheel is not None:
                entry["wheel_depth"] = wheel
            buckets.append(entry)
        return {
            "schema": 1,
            "interval": self.interval,
            "nprocs": self.nprocs,
            "categories": list(CATEGORIES),
            "buckets": buckets,
            "totals": self.totals(),
            "counters": {
                "accesses": self._accesses.value,
                "sync_events": self._sync_events.value,
            },
            "latency_histogram": self._latency.to_dict(),
            "phases": [
                {"time": t, "proc": p, "label": label} for t, p, label in self._phases
            ],
        }
