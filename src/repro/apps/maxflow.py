"""Parallel Maxflow: Goldberg's push-relabel algorithm.

Follows the Anderson-Setubal parallel implementation the paper uses:
each processor discharges active vertices from a *local* work queue;
local queues interact with a *global* queue for load balancing; vertex
data (excess, height, arc flows) lives in shared memory guarded by
per-vertex locks (pairs acquired in vertex-id order).  The
producer-consumer relationship is dynamic and essentially random, and
the computation per datum is small — the paper's most
communication-bound application.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator

from ..runtime.context import AppContext, Machine
from ..runtime.primitives import Lock
from ..runtime.workqueue import CentralQueue
from ..sim.events import Compute, Op
from ..workloads.graphs import FlowNetwork, random_flow_network
from .base import Application
from .costs import DISPATCH, INT_OP, LOOP_OVERHEAD

#: Local-queue length beyond which half the work is shared globally.
_LOCAL_HIGH = 8
#: Cycles of backoff between termination-check polls.
_POLL_BACKOFF = 200.0

# Constant-cost Compute ops shared by every yield of the same site; the
# engine consumes .cycles before the generator resumes and never mutates
# the op, so a single immutable instance per cost is safe.
_C_POLL = Compute(_POLL_BACKOFF)
_C_DISPATCH = Compute(DISPATCH)
_C_ARC = Compute(2 * INT_OP + LOOP_OVERHEAD)
_C_PUSH = Compute(6 * INT_OP)


class Maxflow(Application):
    """Push-relabel max-flow with local queues + global load balancing."""

    name = "Maxflow"

    def __init__(
        self, net: FlowNetwork | None = None, n: int = 64, extra_edges: int = 128, seed: int = 0
    ):
        self.net = net if net is not None else random_flow_network(n, extra_edges, seed=seed)
        self._machine: Machine | None = None

    # ------------------------------------------------------------------
    def setup(self, machine: Machine) -> None:
        self._machine = machine
        shm, sync = machine.shm, machine.sync
        net = self.net
        n, m = net.n, net.num_arcs
        # excess/height/flow are written only under the vertex (pair)
        # locks but read optimistically without them — stale reads are
        # re-validated under the locks in _push/_relabel, so the reads
        # are declared relaxed for the race detector (the paper's
        # "labeled" competing accesses).  Write/write ordering is still
        # checked.  The same holds for the active_count poll in worker().
        # active is NOT relaxed: every access to active[v] happens under
        # a vertex lock covering v (repro lint flags the label as unused
        # otherwise).
        self.excess = shm.array(n, "excess", fill=0, align_line=True, relaxed="read")
        self.height = shm.array(n, "height", fill=0, align_line=True, relaxed="read")
        self.flow = shm.array(m, "flow", fill=0, align_line=True, relaxed="read")
        self.cap = shm.array(m, "cap", fill=0, align_line=True)
        self.cap.poke_many(net.cap.tolist())
        self.active = shm.array(n, "active", fill=0, align_line=True)
        self.active_count = shm.scalar("mf.active_count", fill=0, relaxed="read")
        self.count_lock = Lock(sync, name="mf.count_lock")
        self.vlocks = [Lock(sync, name=f"mf.v{v}") for v in range(n)]
        self.global_q = CentralQueue(shm, sync, capacity=4 * n + 8, name="mf.global")

        # Initial preflow: saturate the source's out-arcs (setup time).
        s, t = net.source, net.sink
        self.height.poke(s, n)
        initial_active: list[int] = []
        for e in net.adj[s]:
            c = int(net.cap[e])
            if c <= 0:
                continue
            w = net.head[e]
            self.flow.poke(e, c)
            self.flow.poke(e ^ 1, -c)
            self.excess.poke(w, self.excess.peek(w) + c)
            self.excess.poke(s, self.excess.peek(s) - c)
            if w not in (s, t) and self.active.peek(w) == 0 and self.excess.peek(w) > 0:
                self.active.poke(w, 1)
                initial_active.append(w)
        self.active_count.poke(0, len(initial_active))
        # Deal initial work round-robin to the processors' local queues.
        p = machine.config.nprocs
        self._seeds: list[list[int]] = [[] for _ in range(p)]
        for k, v in enumerate(initial_active):
            self._seeds[k % p].append(v)

    # ------------------------------------------------------------------
    def _bump_active(self, delta: int) -> Generator[Op, None, None]:
        nrd, nwr, nbase, _, ndata = self.active_count.hot_access()
        yield from self.count_lock.acquire()
        nrd.addr = nbase
        yield nrd
        count = ndata[0] + delta
        nwr.addr = nbase
        yield nwr
        ndata[0] = count
        yield from self.count_lock.release()

    def worker(self, ctx: AppContext) -> Generator[Op, None, None]:
        net = self.net
        s, t = net.source, net.sink
        local: deque[int] = deque(self._seeds[ctx.pid])
        yield from ctx.phase("discharge")
        while True:
            if local:
                v = local.popleft()
            else:
                v = yield from self.global_q.get()
                if v is None:
                    remaining = yield from self.active_count.get()
                    if remaining <= 0:
                        break
                    yield _C_POLL
                    continue
            yield _C_DISPATCH
            newly_active = yield from self._discharge(ctx, v)
            for w in newly_active:
                local.append(w)
            if len(local) > _LOCAL_HIGH:
                # Load balancing: push the back half to the global queue.
                while len(local) > _LOCAL_HIGH // 2:
                    yield from self.global_q.put(local.pop())

    def _discharge(self, ctx: AppContext, v: int) -> Generator[Op, None, list[int]]:
        """Discharge vertex ``v`` until its excess is gone.

        Returns vertices that became active (to enqueue).  ``v`` is
        deactivated (and the global active count decremented) before
        returning; a late push that re-activates it is handled by the
        pusher seeing active[v] == 0.
        """
        net = self.net
        s, t = net.source, net.sink
        # Every arc in adj[v] leaves v (see FlowNetwork), so the scan
        # needs no tail check; adj and head are plain lists.
        head = net.head
        # Zero-call access paths (see SharedArray.hot_access), here and
        # in the locked regions of _push, _relabel and _bump_active.
        erd, _, ebase, eword, edata = self.excess.hot_access()
        hrd, _, hbase, hword, hdata = self.height.hot_access()
        crd, _, cbase, cword, cdata = self.cap.hot_access()
        frd, _, fbase, fword, fdata = self.flow.hot_access()
        _, awr, abase, aword, adata = self.active.hot_access()
        new_active: list[int] = []
        while True:
            erd.addr = ebase + v * eword
            yield erd
            ev = edata[v]
            if ev <= 0:
                break
            pushed = False
            hrd.addr = hbase + v * hword
            yield hrd
            hv = hdata[v]
            for e in net.adj[v]:
                w = head[e]
                yield _C_ARC
                hrd.addr = hbase + w * hword
                yield hrd
                hw = hdata[w]
                if hv != hw + 1:
                    continue
                crd.addr = cbase + e * cword
                yield crd
                c = cdata[e]
                frd.addr = fbase + e * fword
                yield frd
                f = fdata[e]
                if c - f <= 0:
                    continue
                woke = yield from self._push(v, w, e)
                if woke is not None:
                    new_active.append(woke)
                pushed = True
                erd.addr = ebase + v * eword
                yield erd
                ev = edata[v]
                if ev <= 0:
                    break
            if ev <= 0:
                break
            if not pushed:
                lifted = yield from self._relabel(v)
                if not lifted:
                    # No residual arc at all: trapped excess (cannot
                    # happen on connected inputs; guard against hangs).
                    break
                hrd.addr = hbase + v * hword
                yield hrd
                hv = hdata[v]
        # Deactivate v under its lock, re-checking for late pushes.
        yield from self.vlocks[v].acquire()
        erd.addr = ebase + v * eword
        yield erd
        ev = edata[v]
        if ev > 0 and v not in (s, t):
            yield from self.vlocks[v].release()
            new_active.append(v)
            return new_active
        awr.addr = abase + v * aword
        yield awr
        adata[v] = 0
        yield from self.vlocks[v].release()
        yield from self._bump_active(-1)
        return new_active

    def _push(self, v: int, w: int, e: int) -> Generator[Op, None, int | None]:
        """Push along arc ``e`` = (v, w) under the pair of vertex locks.

        Returns ``w`` if it became active and should be enqueued.
        """
        net = self.net
        s, t = net.source, net.sink
        a, b = (v, w) if v < w else (w, v)
        erd, ewr, ebase, eword, edata = self.excess.hot_access()
        hrd, _, hbase, hword, hdata = self.height.hot_access()
        crd, _, cbase, cword, cdata = self.cap.hot_access()
        frd, fwr, fbase, fword, fdata = self.flow.hot_access()
        ard, awr, abase, aword, adata = self.active.hot_access()
        yield from self.vlocks[a].acquire()
        yield from self.vlocks[b].acquire()
        woke: int | None = None
        erd.addr = ebase + v * eword
        yield erd
        ev = edata[v]
        hrd.addr = hbase + v * hword
        yield hrd
        hv = hdata[v]
        hrd.addr = hbase + w * hword
        yield hrd
        hw = hdata[w]
        crd.addr = cbase + e * cword
        yield crd
        c = cdata[e]
        frd.addr = fbase + e * fword
        yield frd
        f = fdata[e]
        delta = min(ev, c - f)
        yield _C_PUSH
        if delta > 0 and hv == hw + 1:
            r = e ^ 1
            fwr.addr = fbase + e * fword
            yield fwr
            fdata[e] = f + delta
            frd.addr = fbase + r * fword
            yield frd
            fr = fdata[r]
            fwr.addr = fbase + r * fword
            yield fwr
            fdata[r] = fr - delta
            ewr.addr = ebase + v * eword
            yield ewr
            edata[v] = ev - delta
            erd.addr = ebase + w * eword
            yield erd
            ew = edata[w]
            ewr.addr = ebase + w * eword
            yield ewr
            edata[w] = ew + delta
            if w not in (s, t) and ew == 0:
                ard.addr = abase + w * aword
                yield ard
                if not adata[w]:
                    awr.addr = abase + w * aword
                    yield awr
                    adata[w] = 1
                    woke = w
        yield from self.vlocks[b].release()
        yield from self.vlocks[a].release()
        if woke is not None:
            yield from self._bump_active(+1)
        return woke

    def _relabel(self, v: int) -> Generator[Op, None, bool]:
        """Lift ``v`` to one above its lowest residual neighbour."""
        net = self.net
        head = net.head
        hrd, hwr, hbase, hword, hdata = self.height.hot_access()
        crd, _, cbase, cword, cdata = self.cap.hot_access()
        frd, _, fbase, fword, fdata = self.flow.hot_access()
        yield from self.vlocks[v].acquire()
        best: int | None = None
        for e in net.adj[v]:
            crd.addr = cbase + e * cword
            yield crd
            c = cdata[e]
            frd.addr = fbase + e * fword
            yield frd
            f = fdata[e]
            yield _C_ARC
            if c - f <= 0:
                continue
            w = head[e]
            hrd.addr = hbase + w * hword
            yield hrd
            hw = hdata[w]
            if best is None or hw < best:
                best = int(hw)
        if best is None:
            yield from self.vlocks[v].release()
            return False
        hrd.addr = hbase + v * hword
        yield hrd
        hv = hdata[v]
        if best + 1 > hv:
            hwr.addr = hbase + v * hword
            yield hwr
            hdata[v] = best + 1
        yield from self.vlocks[v].release()
        return True

    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Check the flow's invariants, then its max-flow/min-cut
        certificate: no residual path from source to sink, and a flow
        value equal to the capacity of the cut that search leaves."""
        net = self.net
        s, t, adj, head = net.source, net.sink, net.adj, net.head
        cap = net.cap.tolist()
        flow = self.flow.snapshot()
        excess = self.excess.snapshot()
        for e, f in enumerate(flow):
            if f > cap[e]:
                raise AssertionError(f"arc {e} over capacity: {f} > {cap[e]}")
            if flow[e ^ 1] != -f:
                raise AssertionError(f"arc pair {e} antisymmetry violated")
        for v in range(net.n):
            inflow = -sum(flow[e] for e in adj[v])
            if excess[v] != inflow:
                raise AssertionError(f"vertex {v} excess {excess[v]} != net inflow {inflow}")
            if inflow != 0 and v != s and v != t:
                raise AssertionError(f"vertex {v} left with excess {inflow}")
        # Source side of the cut: everything reachable over residual arcs.
        reached = [False] * net.n
        reached[s] = True
        side = [s]
        for v in side:
            for e in adj[v]:
                w = head[e]
                if not reached[w] and cap[e] - flow[e] > 0:
                    reached[w] = True
                    side.append(w)
        if reached[t]:
            raise AssertionError("residual path from source to sink: flow is not maximum")
        cut = sum(cap[e] for v in side for e in adj[v] if not reached[head[e]])
        got = excess[t]
        if got != cut:
            raise AssertionError(f"max-flow value {got} != min-cut capacity {cut}")
