"""Network topologies and routing.

The paper's experiments use a 2-D mesh with dimension-order routing; the
SPASM kernel offered a choice of topologies, so we provide mesh, torus,
ring and hypercube route generators.  A route is a tuple of directed
links, each link a ``(node_from, node_to)`` pair.
"""

from __future__ import annotations

from collections.abc import Iterator

Link = tuple[int, int]


class Topology:
    """Base class: maps node ids to coordinates and computes routes."""

    def __init__(self, nnodes: int):
        if nnodes < 1:
            raise ValueError("topology needs at least one node")
        self.nnodes = nnodes

    def route(self, src: int, dst: int) -> tuple[Link, ...]:
        """Directed links traversed from ``src`` to ``dst``."""
        raise NotImplementedError

    def links(self) -> tuple[Link, ...]:
        """All directed links in the topology, in sorted order.

        Sorted so callers can iterate without introducing set-order
        nondeterminism into per-link state (degradation draws, sharded
        routing tables).
        """
        out: set[Link] = set()
        for s in range(self.nnodes):
            for d in range(self.nnodes):
                if s != d:
                    out.update(self.route(s, d))
        return tuple(sorted(out))

    def _check(self, src: int, dst: int) -> None:
        if not (0 <= src < self.nnodes and 0 <= dst < self.nnodes):
            raise ValueError(
                f"nodes ({src}, {dst}) out of range for {self.nnodes}-node topology"
            )


class Mesh2D(Topology):
    """2-D mesh with X-then-Y dimension-order routing (paper default)."""

    def __init__(self, rows: int, cols: int):
        if rows < 1 or cols < 1:
            raise ValueError("mesh dimensions must be positive")
        super().__init__(rows * cols)
        self.rows = rows
        self.cols = cols

    def coords(self, node: int) -> tuple[int, int]:
        return divmod(node, self.cols)

    def node_at(self, row: int, col: int) -> int:
        return row * self.cols + col

    def _walk(self, src: int, dst: int) -> Iterator[int]:
        r0, c0 = self.coords(src)
        r1, c1 = self.coords(dst)
        r, c = r0, c0
        while c != c1:
            c += 1 if c1 > c else -1
            yield self.node_at(r, c)
        while r != r1:
            r += 1 if r1 > r else -1
            yield self.node_at(r, c)

    def route(self, src: int, dst: int) -> tuple[Link, ...]:
        self._check(src, dst)
        links: list[Link] = []
        cur = src
        for nxt in self._walk(src, dst):
            links.append((cur, nxt))
            cur = nxt
        return tuple(links)


class Torus2D(Mesh2D):
    """2-D torus: dimension-order routing along the shorter wrap direction."""

    def _axis_steps(self, frm: int, to: int, size: int) -> Iterator[int]:
        fwd = (to - frm) % size
        back = (frm - to) % size
        step = 1 if fwd <= back else -1
        cur = frm
        for _ in range(min(fwd, back)):
            cur = (cur + step) % size
            yield cur

    def _walk(self, src: int, dst: int) -> Iterator[int]:
        r0, c0 = self.coords(src)
        r1, c1 = self.coords(dst)
        r = r0
        for c in self._axis_steps(c0, c1, self.cols):
            yield self.node_at(r, c)
        c = c1
        for r in self._axis_steps(r0, r1, self.rows):
            yield self.node_at(r, c)


class Ring(Topology):
    """Bidirectional ring; route along the shorter direction."""

    def route(self, src: int, dst: int) -> tuple[Link, ...]:
        self._check(src, dst)
        n = self.nnodes
        fwd = (dst - src) % n
        back = (src - dst) % n
        step = 1 if fwd <= back else -1
        links: list[Link] = []
        cur = src
        for _ in range(min(fwd, back)):
            nxt = (cur + step) % n
            links.append((cur, nxt))
            cur = nxt
        return tuple(links)


class Hypercube(Topology):
    """Binary hypercube with e-cube (ascending-dimension) routing."""

    def __init__(self, nnodes: int):
        if nnodes & (nnodes - 1):
            raise ValueError(f"hypercube size must be a power of two, got {nnodes}")
        super().__init__(nnodes)

    def route(self, src: int, dst: int) -> tuple[Link, ...]:
        self._check(src, dst)
        links: list[Link] = []
        cur = src
        diff = src ^ dst
        bit = 1
        while diff:
            if diff & 1:
                nxt = cur ^ bit
                links.append((cur, nxt))
                cur = nxt
            diff >>= 1
            bit <<= 1
        return tuple(links)


def make_topology(kind: str, nnodes: int, dims: tuple[int, int] | None = None) -> Topology:
    """Factory used by the machine configuration.

    ``kind`` is one of ``mesh``, ``torus``, ``ring``, ``hypercube``.
    """
    kind = kind.lower()
    if kind in ("mesh", "torus"):
        if dims is None:
            raise ValueError(f"{kind} topology requires dims")
        rows, cols = dims
        if rows * cols != nnodes:
            raise ValueError(f"dims {dims} do not cover {nnodes} nodes")
        return Mesh2D(rows, cols) if kind == "mesh" else Torus2D(rows, cols)
    if kind == "ring":
        return Ring(nnodes)
    if kind == "hypercube":
        return Hypercube(nnodes)
    raise ValueError(f"unknown topology kind {kind!r}")
