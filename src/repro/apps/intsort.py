"""NAS Integer Sort (IS) kernel: parallel bucket-sort ranking.

Each processor histograms its static slice of the key array into
buckets, the per-processor histograms are combined into global bucket
counts, a prefix sum produces bucket start offsets, and every processor
ranks its own keys.  The communication pattern is statically defined —
an all-to-all exchange of histograms — which is why the paper sees
little reuse benefit from update protocols on IS (cold misses dominate).

Paper problem size: 32K keys, 1K buckets.
"""

from __future__ import annotations

from collections.abc import Generator

import numpy as np

from ..runtime.context import AppContext, Machine
from ..runtime.primitives import Barrier
from ..sim.events import Compute, Op
from ..workloads.keys import nas_keys
from .base import Application
from .costs import INT_OP, LOOP_OVERHEAD

# Constant-cost Compute ops shared by every yield of the same site; the
# engine consumes .cycles before the generator resumes and never mutates
# the op, so a single immutable instance per cost is safe.
_C_KEY = Compute(12 * INT_OP + LOOP_OVERHEAD)
_C_ACC = Compute(INT_OP + LOOP_OVERHEAD)
_C_PREFIX = Compute(2 * INT_OP + LOOP_OVERHEAD)


def bucket_stable_ranks(keys: np.ndarray, nbuckets: int, max_key: int) -> np.ndarray:
    """Reference ranks: stable sort by bucket then original index."""
    buckets = keys * nbuckets // max_key
    order = np.argsort(buckets, kind="stable")
    ranks = np.empty(len(keys), dtype=np.int64)
    ranks[order] = np.arange(len(keys))
    return ranks


class IntegerSort(Application):
    """Parallel bucket-sort ranking of integer keys."""

    name = "IS"

    def __init__(
        self,
        n_keys: int = 2048,
        nbuckets: int = 128,
        max_key: int | None = None,
        seed: int = 0,
    ):
        if n_keys < 1 or nbuckets < 1:
            raise ValueError("n_keys and nbuckets must be positive")
        self.n = n_keys
        self.nbuckets = nbuckets
        self.max_key = max_key if max_key is not None else nbuckets
        if self.max_key < nbuckets:
            raise ValueError("max_key must be >= nbuckets")
        self.keys_np = nas_keys(n_keys, self.max_key, seed=seed)
        self._machine: Machine | None = None

    # ------------------------------------------------------------------
    def setup(self, machine: Machine) -> None:
        self._machine = machine
        shm, sync = machine.shm, machine.sync
        p = machine.config.nprocs
        b = self.nbuckets
        self.keys = shm.array(self.n, "keys", align_line=True)
        self.keys.poke_many(self.keys_np.tolist())
        #: per-processor histograms, proc-major layout
        self.hist = shm.array(p * b, "hist", fill=0, align_line=True)
        self.gcount = shm.array(b, "gcount", fill=0, align_line=True)
        self.gstart = shm.array(b, "gstart", fill=0, align_line=True)
        self.ranks = shm.array(self.n, "ranks", fill=-1, align_line=True)
        self.barrier = Barrier(sync, name="is.barrier")

    def _slice(self, pid: int, nprocs: int, total: int) -> tuple[int, int]:
        per = (total + nprocs - 1) // nprocs
        lo = min(pid * per, total)
        return lo, min(lo + per, total)

    def _bucket(self, key: int) -> int:
        return key * self.nbuckets // self.max_key

    # ------------------------------------------------------------------
    def worker(self, ctx: AppContext) -> Generator[Op, None, None]:
        p, b = ctx.nprocs, self.nbuckets
        pid = ctx.pid
        lo, hi = self._slice(pid, p, self.n)

        mk = self.max_key
        # Zero-call access paths for the per-key loops (see
        # SharedArray.hot_access).
        krd, _, kbase, kword, kdata = self.keys.hot_access()
        hrd, _, hbase, hword, hdata = self.hist.hot_access()

        # Phase 1: local histogram of this processor's key slice.
        yield from ctx.phase("histogram")
        local_hist = [0] * b
        my_keys: list[int] = []
        for i in range(lo, hi):
            krd.addr = kbase + i * kword
            yield krd
            ki = int(kdata[i])
            my_keys.append(ki)
            local_hist[ki * b // mk] += 1
            # bucket index arithmetic, bounds checks, loop control
            yield _C_KEY
        yield from self.hist.write_range(pid * b, local_hist)
        yield Compute(b * LOOP_OVERHEAD)
        yield from self.barrier.wait()

        # Phase 2: combine histograms for this processor's bucket range.
        yield from ctx.phase("combine")
        blo, bhi = self._slice(pid, p, b)
        for bucket in range(blo, bhi):
            total = 0
            for q in range(p):
                idx = q * b + bucket
                hrd.addr = hbase + idx * hword
                yield hrd
                total += int(hdata[idx])
                yield _C_ACC
            yield from self.gcount.write(bucket, total)
        yield from self.barrier.wait()

        # Phase 3: prefix sum over buckets (serial: algorithmic component).
        yield from ctx.phase("prefix")
        if pid == 0:
            running = 0
            for bucket in range(b):
                yield from self.gstart.write(bucket, running)
                running += int((yield from self.gcount.read(bucket)))
                yield _C_PREFIX
        yield from self.barrier.wait()

        # Phase 4: rank own keys.  Offset of this processor within each
        # bucket = global bucket start + counts of lower-numbered procs.
        yield from ctx.phase("rank")
        offsets: dict[int, int] = {}
        for bucket in sorted(set(k * b // mk for k in my_keys)):
            start = int((yield from self.gstart.read(bucket)))
            for q in range(pid):
                hidx = q * b + bucket
                hrd.addr = hbase + hidx * hword
                yield hrd
                start += int(hdata[hidx])
                yield _C_ACC
            offsets[bucket] = start
        _, rwr, rbase, rword, rdata = self.ranks.hot_access()
        for idx, k in enumerate(my_keys):
            bucket = k * b // mk
            rwr.addr = rbase + (lo + idx) * rword
            yield rwr
            rdata[lo + idx] = offsets[bucket]
            offsets[bucket] += 1
            yield _C_KEY
        yield from self.barrier.wait()

    # ------------------------------------------------------------------
    def verify(self) -> None:
        got = np.array(self.ranks.snapshot(), dtype=np.int64)
        want = bucket_stable_ranks(self.keys_np, self.nbuckets, self.max_key)
        if not np.array_equal(got, want):
            bad = int(np.count_nonzero(got != want))
            raise AssertionError(f"IS ranks wrong for {bad}/{self.n} keys")
