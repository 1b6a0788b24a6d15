"""Independent references the tests cross-check the simulator against.

The applications verify themselves by certificate (``Maxflow.verify``:
max-flow/min-cut; ``Cholesky.verify``: the residual ``A - L Lᵀ``), so
these dense or third-party solves live here, outside the runtime
package: networkx is a test dependency only.  The routed network's
zero-load latency formula and its link reservations are read here too.
"""

from __future__ import annotations

import numpy as np

from repro.network.routed import RoutedNetwork
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
