"""Sparse Cholesky factorisation with a central work queue.

Fan-in (left-looking) column factorisation: a column task reads every
factor column that updates it (``cmod``), accumulates locally, scales
(``cdiv``), publishes the finished column, then decrements the
dependency counts of its dependents — newly-ready columns enter the
central work queue.  Communication comes from fetching remote columns
and from the contended central queue, so the pattern is totally dynamic,
exactly the character the paper ascribes to its Cholesky.

The paper's matrix groups columns with similar structure into
supernodes; our generated matrices have short supernode chains, so task
granularity is a single column (the supernode partition is computed and
reported for reference).
"""

from __future__ import annotations

from collections.abc import Generator
from itertools import accumulate, chain
from math import sqrt

import numpy as np

from ..runtime.context import AppContext, Machine
from ..runtime.primitives import Lock
from ..runtime.workqueue import TaskPool
from ..sim.events import Compute, Op
from ..workloads.matrices import (
    SparseSPD,
    grid_laplacian,
    symbolic_cholesky,
)
from .base import Application
from .costs import DISPATCH, FDIV, FMA, FSQRT, INT_OP, LOOP_OVERHEAD

# Constant-cost Compute ops shared by every yield of the same site.  The
# engine consumes an op (reads .cycles) before resuming the generator
# and these are never mutated, so one immutable instance per cost is
# safe — and saves an allocation per simulated instruction.
_C_DISPATCH = Compute(DISPATCH)
_C_GATHER = Compute(INT_OP + LOOP_OVERHEAD)
_C_CMOD = Compute(FMA + LOOP_OVERHEAD)
_C_SQRT = Compute(FSQRT)
_C_CDIV = Compute(FDIV + LOOP_OVERHEAD)
_C_LOOP = Compute(LOOP_OVERHEAD)

#: Bound on ``|A - L Lᵀ|`` at each position of L's structure, relative
#: to A's largest diagonal entry (which bounds every ``|A[i,j]|`` and
#: every ``sum_k |L[i,k] L[j,k]|`` of an SPD matrix).  Rounding leaves
#: about 2e-16 on the preset and random inputs; an entry ``L[i,j]`` off
#: by ``d`` leaves ``L[j,j] * d`` at ``(i, j)``.
RESIDUAL_TOL = 1e-10


class Cholesky(Application):
    """Parallel sparse Cholesky with central-queue scheduling."""

    name = "Cholesky"

    #: Number of dependency-count locks (columns hash onto them).
    NLOCKS = 32

    def __init__(self, matrix: SparseSPD | None = None, grid: tuple[int, int] = (12, 12)):
        self.a = matrix if matrix is not None else grid_laplacian(*grid)
        self.symbolic = symbolic_cholesky(self.a)
        self.n = self.a.n
        # Column-compressed layouts of L and A in flat shared arrays
        # (plain lists: the worker indexes them per element).
        col_struct = self.symbolic.col_struct
        self._colptr = list(accumulate(map(len, col_struct), initial=0))
        self.a_colptr = list(accumulate(map(len, self.a.cols), initial=0))
        #: row index -> position within column (private metadata)
        self.row_pos = [{r: k for k, r in enumerate(struct)} for struct in col_struct]
        self._machine: Machine | None = None

    @property
    def colptr(self) -> np.ndarray:
        """Start of each column of L in ``lvals`` (``n + 1`` entries)."""
        return np.array(self._colptr, dtype=np.int64)

    # ------------------------------------------------------------------
    def setup(self, machine: Machine) -> None:
        self._machine = machine
        shm, sync = machine.shm, machine.sync
        nnz_l = self._colptr[-1]
        nnz_a = self.a_colptr[-1]
        self.lvals = shm.array(nnz_l, "lvals", fill=0.0, align_line=True)
        self.avals = shm.array(nnz_a, "avals", fill=0.0, align_line=True)
        flat_a: list[float] = []
        for vals in self.a.vals:
            flat_a.extend(float(v) for v in vals)
        self.avals.poke_many(flat_a)
        self.dep = shm.array(self.n, "dep", fill=0, align_line=True)
        counts = self.symbolic.dep_counts()
        self.dep.poke_many(counts)
        self.locks = [Lock(sync, name=f"chol.dep{k}") for k in range(self.NLOCKS)]
        self.pool = TaskPool(shm, sync, capacity=self.n + 1, name="chol.queue")
        leaves = [j for j in range(self.n) if counts[j] == 0]
        self.pool.seed(leaves)

    # ------------------------------------------------------------------
    def worker(self, ctx: AppContext) -> Generator[Op, None, None]:
        sym = self.symbolic
        colptr = self._colptr
        row_pos = self.row_pos
        # Zero-call access paths for the factor kernels and the
        # dependency-count update (see SharedArray.hot_access): the
        # gather/cmod/cdiv loops are the app-side hot path and
        # per-element sub-generators dominated it.
        ard, _, abase, aword, adata = self.avals.hot_access()
        lrd, lwr, lbase, lword, ldata = self.lvals.hot_access()
        drd, dwr, dbase, dword, ddata = self.dep.hot_access()
        yield from ctx.phase("factor")
        while True:
            j = yield from self.pool.get_task()
            if j is None:
                break
            yield _C_DISPATCH
            struct = sym.col_struct[j]
            base_j = colptr[j]
            # Accumulator for column j, initialised from A's column.
            acc = dict.fromkeys(struct, 0.0)
            a_base = self.a_colptr[j]
            for k, i in enumerate(self.a.cols[j]):
                ard.addr = abase + (a_base + k) * aword
                yield ard
                acc[i] = adata[a_base + k]
                yield _C_GATHER
            # cmod(j, k) for every column k with L[j,k] != 0.
            for k in sym.row_struct[j]:
                base_k = colptr[k]
                pos_jk = row_pos[k][j]
                lrd.addr = lbase + (base_k + pos_jk) * lword
                yield lrd
                ljk = ldata[base_k + pos_jk]
                struct_k = sym.col_struct[k]
                for kk in range(pos_jk, len(struct_k)):
                    i = struct_k[kk]
                    lrd.addr = lbase + (base_k + kk) * lword
                    yield lrd
                    acc[i] -= ljk * ldata[base_k + kk]
                    yield _C_CMOD
            # cdiv(j): scale by the diagonal and publish the column.
            diag = sqrt(acc[j])
            yield _C_SQRT
            lwr.addr = lbase + base_j * lword
            yield lwr
            ldata[base_j] = diag
            for k, i in enumerate(struct[1:], start=1):
                val = acc[i] / diag
                yield _C_CDIV
                lwr.addr = lbase + (base_j + k) * lword
                yield lwr
                ldata[base_j + k] = val
            # Publish readiness: dependents of j are exactly the rows of
            # column j's off-diagonal structure.  task_done comes last so
            # the outstanding count never transiently reaches zero while
            # successors are still to be enqueued.
            for d in struct[1:]:
                lock = self.locks[d % self.NLOCKS]
                yield from lock.acquire()
                drd.addr = dbase + d * dword
                yield drd
                remaining = ddata[d] - 1
                dwr.addr = dbase + d * dword
                yield dwr
                ddata[d] = remaining
                yield from lock.release()
                if remaining == 0:
                    yield from self.pool.add_task(d)
                yield _C_LOOP
            yield from self.pool.task_done()

    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Check the factor by its residual: a positive diagonal and
        ``|A - L Lᵀ| <= RESIDUAL_TOL * max(diag A)`` at every position of
        L's structure, in sparse form (no n x n array).  Outside that
        structure both sides are zero (the structure is closed under
        elimination), and the SPD factor with a positive diagonal is
        unique, so a residual at rounding level means L is A's factor."""
        n = self.n
        struct = self.symbolic.col_struct
        colptr = self._colptr
        lvals = np.array(self.lvals.snapshot())
        diag = lvals[colptr[:-1]]
        if not np.all(diag > 0):
            j = int(np.argmin(diag > 0))
            raise AssertionError(f"Cholesky factor diagonal L[{j},{j}] = {diag[j]} is not positive")
        # Position keys ``col * n + row`` of L's entries ascend in lvals
        # order; A's lower triangle sits inside L's structure.
        rows = np.fromiter(chain.from_iterable(struct), np.int64, len(lvals))
        keys = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(colptr)) + rows
        a_keys = [j * n + i for j, col in enumerate(self.a.cols) for i in col]
        resid = np.zeros(len(lvals))
        resid[np.searchsorted(keys, a_keys)] = list(chain.from_iterable(self.a.vals))
        # Subtract L Lᵀ one column of L at a time: column k adds
        # L[i,k] L[j,k] at every (i, j) of its rows with i >= j, and
        # those positions are distinct, so a fancy-indexed subtract drops
        # no term.
        tril: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for k in range(n):
            lo, hi = colptr[k], colptr[k + 1]
            if hi - lo not in tril:
                tril[hi - lo] = np.tril_indices(hi - lo)
            ia, ib = tril[hi - lo]
            r = rows[lo:hi]
            v = lvals[lo:hi]
            resid[np.searchsorted(keys, r[ib] * n + r[ia])] -= v[ia] * v[ib]
        tol = RESIDUAL_TOL * max(vals[0] for vals in self.a.vals)
        err = np.abs(resid)
        err[np.isnan(err)] = np.inf
        p = int(err.argmax())
        if err[p] > tol:
            i, j = int(rows[p]), int(keys[p] // n)
            raise AssertionError(
                f"Cholesky residual |A - L L^T|[{i},{j}] = {abs(resid[p]):.3g} exceeds {tol:.3g}"
            )
