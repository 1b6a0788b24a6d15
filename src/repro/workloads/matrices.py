"""Sparse SPD matrices and symbolic Cholesky factorisation.

The paper factors a 1086x1086 sparse positive-definite matrix (30,824
non-zeros, 110,461 in the factor, 506 supernodes).  We generate matrices
with the same character — sparse SPD with data-dependent fill — from 2-D
grid Laplacians (the classic source of such systems) or random SPD
sparsity, and perform the symbolic factorisation (elimination tree +
factor column structures) that drives the parallel numeric phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SparseSPD:
    """A sparse SPD matrix in column-compressed style (lower triangle).

    ``cols[j]`` holds the row indices ``i >= j`` of non-zeros in column
    ``j`` (diagonal first); ``vals[j]`` the matching values.  Both are
    plain lists: the factorisation walks them one element at a time.
    """

    n: int
    cols: list[list[int]]
    vals: list[list[float]]

    @property
    def nnz_lower(self) -> int:
        return sum(len(c) for c in self.cols)

    def dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for j, (rows, vals) in enumerate(zip(self.cols, self.vals)):
            for i, v in zip(rows, vals):
                a[i, j] = v
                a[j, i] = v
        return a


@dataclass
class SymbolicFactor:
    """Structure of the Cholesky factor L.

    ``col_struct[j]`` — sorted row indices of column j of L (diagonal
    first); ``row_struct[j]`` — columns ``k < j`` with ``L[j,k] != 0``
    (the columns whose updates column j consumes); ``parent`` — the
    elimination tree; ``dep_count[j] = len(row_struct[j])``.  The
    structures are plain lists of ints, like :class:`SparseSPD`'s.
    """

    n: int
    col_struct: list[list[int]]
    row_struct: list[list[int]]
    parent: np.ndarray
    supernodes: list[tuple[int, int]] = field(default_factory=list)

    @property
    def nnz(self) -> int:
        return sum(len(c) for c in self.col_struct)

    def dep_counts(self) -> list[int]:
        return [len(r) for r in self.row_struct]


def nested_dissection_order(rows: int, cols: int) -> np.ndarray:
    """Nested-dissection elimination order of a ``rows x cols`` grid.

    Recursive bisection with one-cell-wide separators.  The returned
    permutation ``perm`` lists grid cells (row-major ids) in elimination
    order; it yields a bushy elimination tree, i.e. real task
    parallelism in the factorisation (a natural row-major order makes
    the tree a chain).
    """
    order: list[int] = []

    def dissect(r0: int, r1: int, c0: int, c1: int) -> None:
        h, w = r1 - r0, c1 - c0
        if h <= 0 or w <= 0:
            return
        if h * w <= 4:
            for r in range(r0, r1):
                for c in range(c0, c1):
                    order.append(r * cols + c)
            return
        if h >= w:
            mid = r0 + h // 2
            dissect(r0, mid, c0, c1)
            dissect(mid + 1, r1, c0, c1)
            for c in range(c0, c1):  # separator row last
                order.append(mid * cols + c)
        else:
            mid = c0 + w // 2
            dissect(r0, r1, c0, mid)
            dissect(r0, r1, mid + 1, c1)
            for r in range(r0, r1):  # separator column last
                order.append(r * cols + mid)

    dissect(0, rows, 0, cols)
    perm = np.array(order, dtype=np.int64)
    if len(perm) != rows * cols:
        raise AssertionError("nested dissection dropped cells")
    return perm


def grid_laplacian(rows: int, cols: int, shift: float = 0.1, ordering: str = "nd") -> SparseSPD:
    """5-point Laplacian of a ``rows x cols`` grid, shifted to be SPD.

    ``ordering`` is ``"nd"`` (nested dissection, parallel elimination
    tree — default) or ``"natural"`` (row-major, chain-like tree).
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    n = rows * cols
    if ordering == "nd":
        perm = nested_dissection_order(rows, cols)
    elif ordering == "natural":
        perm = np.arange(n, dtype=np.int64)
    else:
        raise ValueError(f"unknown ordering {ordering!r}")
    inv = [0] * n
    for j, cell in enumerate(perm.tolist()):
        inv[cell] = j

    col_rows: list[list[int]] = [[] for _ in range(n)]
    col_vals: list[list[float]] = [[] for _ in range(n)]
    for r in range(rows):
        for c in range(cols):
            cell = r * cols + c
            j = inv[cell]
            degree = sum(
                1
                for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
                if 0 <= rr < rows and 0 <= cc < cols
            )
            col_rows[j].append(j)
            col_vals[j].append(degree + shift)
            for rr, cc in ((r + 1, c), (r, c + 1), (r - 1, c), (r, c - 1)):
                if 0 <= rr < rows and 0 <= cc < cols:
                    i = inv[rr * cols + cc]
                    if i > j:  # lower triangle only
                        col_rows[j].append(i)
                        col_vals[j].append(-1.0)
    # Keep row indices sorted within each column (diagonal first).
    for j in range(n):
        pairs = sorted(zip(col_rows[j], col_vals[j]))  # rows are distinct
        col_rows[j] = [i for i, _ in pairs]
        col_vals[j] = [v for _, v in pairs]
    return SparseSPD(n=n, cols=col_rows, vals=col_vals)


def random_spd(n: int, density: float = 0.05, seed: int = 0) -> SparseSPD:
    """Random sparse SPD matrix (diagonally dominant)."""
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    rng = np.random.default_rng(seed)
    col_rows: list[list[int]] = [[j] for j in range(n)]
    col_vals: list[list[float]] = [[0.0] for _ in range(n)]
    row_sums = np.zeros(n)
    for j in range(n):
        for i in range(j + 1, n):
            if rng.random() < density:
                v = -rng.random()
                col_rows[j].append(i)
                col_vals[j].append(v)
                row_sums[i] += abs(v)
                row_sums[j] += abs(v)
    for j in range(n):
        col_vals[j][0] = float(row_sums[j] + 1.0 + rng.random())
    return SparseSPD(n=n, cols=col_rows, vals=col_vals)


def symbolic_cholesky(a: SparseSPD) -> SymbolicFactor:
    """Elimination tree and factor structure (Liu's algorithm).

    Column struct of L: ``struct(j) = A_struct(j) ∪ (∪_{children c}
    struct(c) \\ {c})``, restricted to rows ``>= j``.
    """
    n = a.n
    parent = np.full(n, -1, dtype=np.int64)
    children: list[list[int]] = [[] for _ in range(n)]
    col_struct: list[list[int]] = []
    for j in range(n):
        rows = {i for i in a.cols[j] if i >= j}
        rows.add(j)
        for c in children[j]:
            rows.update(i for i in col_struct[c] if i > j)
        struct = sorted(rows)
        col_struct.append(struct)
        if len(struct) > 1:
            p = struct[1]  # first off-diagonal row = etree parent
            parent[j] = p
            children[p].append(j)
    row_struct: list[list[int]] = [[] for _ in range(n)]
    for k in range(n):
        for i in col_struct[k][1:]:
            row_struct[i].append(k)
    factor = SymbolicFactor(n=n, col_struct=col_struct, row_struct=row_struct, parent=parent)
    factor.supernodes = find_supernodes(factor)
    return factor


def find_supernodes(factor: SymbolicFactor) -> list[tuple[int, int]]:
    """Partition columns into supernodes (maximal chains of columns with
    nested structure), as the paper's Cholesky amalgamates columns with
    similar non-zero structure.  Returns ``[(first, last)]`` inclusive."""
    supernodes: list[tuple[int, int]] = []
    n = factor.n
    j = 0
    while j < n:
        last = j
        while (
            last + 1 < n
            and factor.parent[last] == last + 1
            and len(factor.col_struct[last]) == len(factor.col_struct[last + 1]) + 1
        ):
            last += 1
        supernodes.append((j, last))
        j = last + 1
    return supernodes

