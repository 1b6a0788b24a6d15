"""Flow-network generation for the Maxflow application.

The paper uses a 200-vertex / 400-bidirectional-edge directed graph with
edge capacities.  We generate random graphs of that shape: a guaranteed
source-to-sink backbone plus random bidirectional edges with integer
capacities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class FlowNetwork:
    """A directed flow network stored as arc lists.

    Arcs come in residual pairs: arc ``e`` and ``e ^ 1`` are mutual
    reverses (capacity of the reverse arc is 0 for a directed edge, or
    the back capacity for a bidirectional one).
    """

    n: int
    source: int
    sink: int
    #: arc endpoints, len = num_arcs (even; pairs share e//2)
    tail: np.ndarray
    #: a plain list, like ``adj``: the discharge scan indexes it per arc
    head: list[int]
    cap: np.ndarray
    #: adjacency: out-arcs (arc ids) per vertex, including residual
    #: arcs, so every arc ``e`` in ``adj[v]`` has ``tail[e] == v``
    adj: list[list[int]]

    @property
    def num_arcs(self) -> int:
        return len(self.tail)

    def reverse(self, e: int) -> int:
        return e ^ 1


def _build(n: int, source: int, sink: int, edges: list[tuple[int, int, int, int]]) -> FlowNetwork:
    tail: list[int] = []
    head: list[int] = []
    cap: list[int] = []
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v, c_uv, c_vu in edges:
        e = len(tail)
        tail += [u, v]
        head += [v, u]
        cap += [c_uv, c_vu]
        adj[u].append(e)
        adj[v].append(e + 1)
    return FlowNetwork(
        n=n,
        source=source,
        sink=sink,
        tail=np.array(tail, dtype=np.int64),
        head=head,
        cap=np.array(cap, dtype=np.int64),
        adj=adj,
    )


def random_flow_network(
    n: int = 200,
    extra_edges: int = 400,
    max_cap: int = 100,
    seed: int = 0,
) -> FlowNetwork:
    """Random connected flow network: a source->sink chain backbone plus
    ``extra_edges`` random bidirectional edges (the paper's 200v/400e
    shape at default parameters)."""
    if n < 2:
        raise ValueError("need at least source and sink")
    rng = np.random.default_rng(seed)
    source, sink = 0, n - 1
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int, int, int]] = []
    # Backbone guarantees feasibility of some flow.
    order = [0] + list(rng.permutation(np.arange(1, n - 1))) + [n - 1]
    for a, b in zip(order, order[1:]):
        u, v = int(a), int(b)
        seen.add((min(u, v), max(u, v)))
        edges.append((u, v, int(rng.integers(1, max_cap + 1)), int(rng.integers(1, max_cap + 1))))
    attempts = 0
    while len(edges) < len(order) - 1 + extra_edges and attempts < 100 * extra_edges:
        attempts += 1
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        edges.append((u, v, int(rng.integers(1, max_cap + 1)), int(rng.integers(1, max_cap + 1))))
    return _build(n, source, sink, edges)

