"""Independent references the tests cross-check the simulator against.

The applications verify themselves by certificate (``Maxflow.verify``:
max-flow/min-cut; ``Cholesky.verify``: the residual ``A - L Lᵀ``), so
these dense or third-party solves live here, outside the runtime
package: networkx is a test dependency only.  The routed network's
zero-load latency formula and its link reservations are read here too,
and an attribution report's cells are refolded one dict per cell.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.naming import sync_label
from repro.network.routed import RoutedNetwork
from repro.obs.attrib import (
    DATA_ROW,
    DIMENSIONS,
    STALL_ROW,
    STARTUP_PHASE,
    SYNC_ROW,
    UNCHARGED_ROW,
)
from repro.sim.stats import SyncPoint
from repro.workloads.graphs import FlowNetwork
from repro.workloads.matrices import SparseSPD


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


def min_latency(net: RoutedNetwork, src: int, dst: int, nbytes: int) -> float:
    """Zero-load latency of an ``nbytes`` message from ``src`` to ``dst``:
    a router delay per hop, then the serialisation time."""
    if src == dst:
        return 0.0
    hops = net.topology.hops(src, dst)
    return hops * net.router_delay + (nbytes + net.header_bytes) * net.cycles_per_byte


def link_utilisation(net: RoutedNetwork) -> dict[tuple[int, int], float]:
    """Latest reservation horizon per directed link that has carried a
    message."""
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
