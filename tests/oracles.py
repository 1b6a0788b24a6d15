"""Independent reference solvers the tests cross-check the apps against.

The applications verify themselves by certificate (``Maxflow.verify``:
max-flow/min-cut; ``Cholesky.verify``: the residual ``A - L Lᵀ``), so
these dense or third-party solves live here, outside the runtime
package: networkx is a test dependency only.
"""

from __future__ import annotations

import numpy as np

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
