"""Barnes-Hut N-body simulation (2-D).

Bodies are statically assigned to processors; every time step runs the
paper's three phases:

1. **gather/build** — every processor reads all body positions and
   masses through shared memory and builds its (replicated) quadtree
   privately.  The body arrays carry the application's producer-consumer
   pattern: each position is produced by its owner and consumed by all
   processors, so update-based protocols deliver new positions into
   caches while the invalidate protocol pays a miss per line per step.
2. **force** — forces on owned bodies are computed from the private
   tree (pure computation).
3. **update** — owners integrate and write back their bodies' positions
   and velocities.

Every ``boost_interval`` steps the body-to-processor assignment rotates,
emulating the paper's "artificial boost to affect the sharing pattern
every 10 time steps" (the set of producers for each line changes).
"""

from __future__ import annotations

from collections.abc import Generator
from math import sqrt

import numpy as np

from ..runtime.context import AppContext, Machine
from ..runtime.primitives import Barrier
from ..sim.events import Compute, Op
from ..workloads.bodies import BodySet, uniform_disc
from .base import Application
from .costs import FDIV, FLOP, FMA, FSQRT, INT_OP, LOOP_OVERHEAD
from .quadtree import QuadTree, build_tree, force_reference, opens

#: cycles per quadtree node allocated/summarised during the build phase
_BUILD_NODE_COST = 12 * INT_OP + 4 * FLOP
#: cycles per insertion descent level
_INSERT_LEVEL_COST = 6 * INT_OP

#: Per-node costs for the fused traversal below.  The expressions match
#: :func:`traversal_cost` exactly (same operands, same evaluation order)
#: so the accumulated cycle totals stay bit-identical.
_VISIT_COST = LOOP_OVERHEAD + INT_OP
_KERNEL_COST = 4 * FMA + FSQRT + FDIV
_OPEN_TEST_COST = 3 * FLOP

#: Reusable integrate-step op (the engine consumes .cycles before the
#: generator resumes and never mutates the op).
_C_UPDATE = Compute(4 * FMA + LOOP_OVERHEAD)


class _StepForces:
    """One step's memoised forces, plus the node count of its tree.

    The node count is all the build phase's ``Compute`` needs, so a
    processor whose owned forces are all here never needs the tree.
    """

    __slots__ = ("nnodes", "forces")

    def __init__(self) -> None:
        #: ``tree.nnodes`` once any run has built this step's tree.
        self.nnodes: int | None = None
        #: body -> (ax, ay, traversal cycles)
        self.forces: dict[int, tuple[float, float, float]] = {}


#: Host-side memo of force traversals, keyed *by value* on everything
#: the result depends on.  A study sweep runs the same application under
#: five memory systems; the Python-level dynamics are identical across
#: those runs, so each (positions, masses, body) force is recomputed up
#: to 5x without this.  Like the per-instance tree memo, this changes
#: no simulated timing — every processor still yields the same
#: ``Compute(cost)`` — and a divergent (racy) run produces a different
#: key and falls back to a fresh computation.  Trees are not kept here:
#: each entry holds only numbers.  One entry per time step: the bound
#: covers the longest preset run (``paper``: 50 steps), so a study's
#: next system, which starts again from step 0, finds every step.
_FORCE_MEMO: dict[tuple, _StepForces] = {}
_FORCE_MEMO_MAX = 64


def _force_memo_for(xs, ys, ms, theta: float, eps: float) -> _StepForces:
    """Per-timestep force-result store for the given dynamics state."""
    key = (theta, eps, tuple(xs), tuple(ys), tuple(ms))
    memo = _FORCE_MEMO.get(key)
    if memo is None:
        if len(_FORCE_MEMO) >= _FORCE_MEMO_MAX:
            # FIFO eviction, oldest step first; the bound keeps every
            # step of a preset run resident.
            del _FORCE_MEMO[next(iter(_FORCE_MEMO))]
        memo = _FORCE_MEMO[key] = _StepForces()
    return memo


def _tree_of(memo: list) -> QuadTree:
    """The tree of a per-instance step memo, built on first use."""
    tree = memo[5]
    if tree is None:
        tree = memo[5] = build_tree(memo[1], memo[2], memo[3])
        memo[4].nnodes = tree.nnodes
    return tree


def traversal_cost(tree: QuadTree, i: int, xs, ys, theta: float, eps: float) -> float:
    """Cycles for the force traversal of body ``i`` (mirrors
    :func:`force_reference`'s control flow)."""
    x, y = xs[i], ys[i]
    cycles = 0.0
    stack = [0]
    while stack:
        nid = stack.pop()
        b = tree.body[nid]
        cycles += LOOP_OVERHEAD + INT_OP
        if b >= 0:
            if b != i:
                cycles += 4 * FMA + FSQRT + FDIV
            continue
        dx = tree.comx[nid] - x
        dy = tree.comy[nid] - y
        cycles += 3 * FLOP
        if not opens(tree.half[nid], dx, dy, eps, theta):
            cycles += 4 * FMA + FSQRT + FDIV
        else:
            for q in range(3, -1, -1):
                c = tree.child[4 * nid + q]
                cycles += INT_OP
                if c != -1:
                    stack.append(c)
    return cycles


def force_and_cost(
    tree: QuadTree, i: int, xs, ys, theta: float, eps: float
) -> tuple[float, float, float]:
    """Force on body ``i`` plus the traversal's cycle cost, in one pass.

    Replicates :func:`force_reference` and :func:`traversal_cost`
    operation for operation — same stack order, same IEEE operand order
    for both the acceleration and the cycle accumulations — so
    ``(ax, ay)`` and ``cycles`` are bit-identical to running the two
    reference traversals separately.  Fusing them halves the tree walks,
    which dominate the Nbody host profile.
    """
    x = xs[i]
    y = ys[i]
    body = tree.body
    comx = tree.comx
    comy = tree.comy
    mass = tree.mass
    half = tree.half
    child = tree.child
    eps2 = eps * eps
    theta2 = theta * theta
    ax = ay = 0.0
    cycles = 0.0
    stack = [0]
    pop = stack.pop
    push = stack.append
    while stack:
        nid = pop()
        b = body[nid]
        cycles += _VISIT_COST
        if b >= 0:
            if b != i:
                dx = comx[nid] - x
                dy = comy[nid] - y
                r2 = dx * dx + dy * dy + eps2
                inv = mass[nid] / (r2 * sqrt(r2))
                ax += dx * inv
                ay += dy * inv
                cycles += _KERNEL_COST
            continue
        dx = comx[nid] - x
        dy = comy[nid] - y
        cycles += _OPEN_TEST_COST
        r2 = dx * dx + dy * dy + eps2
        size = 2.0 * half[nid]
        if size * size < theta2 * r2:
            inv = mass[nid] / (r2 * sqrt(r2))
            ax += dx * inv
            ay += dy * inv
            cycles += _KERNEL_COST
        else:
            i4 = 4 * nid
            for q in (3, 2, 1, 0):
                c = child[i4 + q]
                cycles += INT_OP
                if c != -1:
                    push(c)
    return ax, ay, cycles


#: Host-side memo of :func:`reference_run`, keyed by value on the body
#: arrays and the integration parameters.  A study verifies the same
#: input under five memory systems; each job still compares its own
#: positions and velocities against the (read-only) memoised result.
_REFERENCE_MEMO: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
_REFERENCE_MEMO_MAX = 8


def reference_run(
    bodies: BodySet, steps: int, dt: float, theta: float, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """Sequential Barnes-Hut with the same arithmetic as the parallel
    version; returns final (pos, vel), read-only and memoised per
    input within the process."""
    arrays = (bodies.pos, bodies.vel, bodies.mass)
    key = (*(np.asarray(a, dtype=np.float64).tobytes() for a in arrays), steps, dt, theta, eps)
    hit = _REFERENCE_MEMO.get(key)
    if hit is not None:
        return hit
    xs = [float(v) for v in bodies.pos[:, 0]]
    ys = [float(v) for v in bodies.pos[:, 1]]
    vx = [float(v) for v in bodies.vel[:, 0]]
    vy = [float(v) for v in bodies.vel[:, 1]]
    ms = [float(v) for v in bodies.mass]
    n = len(ms)
    for _ in range(steps):
        tree = build_tree(xs, ys, ms)
        acc = [force_reference(tree, i, xs, ys, theta, eps) for i in range(n)]
        for i in range(n):
            vx[i] += acc[i][0] * dt
            vy[i] += acc[i][1] * dt
            xs[i] += vx[i] * dt
            ys[i] += vy[i] * dt
    pos, vel = np.column_stack([xs, ys]), np.column_stack([vx, vy])
    pos.flags.writeable = vel.flags.writeable = False
    if len(_REFERENCE_MEMO) >= _REFERENCE_MEMO_MAX:
        del _REFERENCE_MEMO[next(iter(_REFERENCE_MEMO))]  # FIFO, like _FORCE_MEMO
    _REFERENCE_MEMO[key] = pos, vel
    return pos, vel


class BarnesHut(Application):
    """Parallel Barnes-Hut on the simulated shared-memory machine."""

    name = "Nbody"

    def __init__(
        self,
        bodies: BodySet | None = None,
        n_bodies: int = 128,
        steps: int = 10,
        dt: float = 0.02,
        theta: float = 0.5,
        eps: float = 0.05,
        boost_interval: int = 5,
        seed: int = 0,
    ):
        self.bodies = bodies if bodies is not None else uniform_disc(n_bodies, seed=seed)
        self.n = self.bodies.n
        self.steps = steps
        self.dt = dt
        self.theta = theta
        self.eps = eps
        self.boost_interval = boost_interval
        self._machine: Machine | None = None
        #: Per-step memo of the replicated tree build,
        #: ``[step, xs, ys, ms, step forces, tree or None]``: every
        #: processor builds its tree from the same DRF-published
        #: positions, so one host-side build can serve all of them.  The
        #: cached inputs are compared by value before reuse, so a
        #: divergent (racy) run falls back to a private memo and stays
        #: correct.  The step's force memo (:func:`_force_memo_for`)
        #: rides along, so only the first processor of a step builds its
        #: key.  The tree itself is built (:func:`_tree_of`) only when
        #: the force memo lacks the node count or an owned force.
        #: Simulated timing is untouched: each processor still pays the
        #: build's Compute cost.
        self._tree_memo: list | None = None

    # ------------------------------------------------------------------
    def setup(self, machine: Machine) -> None:
        self._machine = machine
        shm, sync = machine.shm, machine.sync
        n = self.n
        self.px = shm.array(n, "px", align_line=True)
        self.py = shm.array(n, "py", align_line=True)
        self.vx = shm.array(n, "vx", align_line=True)
        self.vy = shm.array(n, "vy", align_line=True)
        self.ms = shm.array(n, "mass", align_line=True)
        self.px.poke_many([float(v) for v in self.bodies.pos[:, 0]])
        self.py.poke_many([float(v) for v in self.bodies.pos[:, 1]])
        self.vx.poke_many([float(v) for v in self.bodies.vel[:, 0]])
        self.vy.poke_many([float(v) for v in self.bodies.vel[:, 1]])
        self.ms.poke_many([float(v) for v in self.bodies.mass])
        self.barrier = Barrier(sync, name="bh.barrier")
        self._tree_memo = None

    def _partition(self, pid: int, nprocs: int, step: int) -> tuple[int, int]:
        """Body slice owned by ``pid`` at ``step`` (rotates on boosts)."""
        shift = (step // self.boost_interval) % nprocs if self.boost_interval else 0
        owner = (pid + shift) % nprocs
        per = (self.n + nprocs - 1) // nprocs
        lo = min(owner * per, self.n)
        return lo, min(lo + per, self.n)

    # ------------------------------------------------------------------
    def worker(self, ctx: AppContext) -> Generator[Op, None, None]:
        n = self.n
        # Zero-call access path for the per-step position gather (see
        # SharedArray.hot_access): the full-array read is the app-side
        # hot loop and the read_range delegation frame was measurable.
        pxrd, _, pxbase, pxword, pxdata = self.px.hot_access()
        pyrd, _, pybase, pyword, pydata = self.py.hot_access()
        # Masses are static: read them once (cold misses only).
        ms = yield from self.ms.read_range(0, n)
        # Velocities are consumed only by the owning processor, so they
        # live in private storage and migrate through the shared arrays
        # only when the assignment rotates (and at the end of the run).
        vxs: list[float] = []
        vys: list[float] = []
        prev_slice: tuple[int, int] | None = None
        for step in range(self.steps):
            lo, hi = self._partition(ctx.pid, ctx.nprocs, step)
            if (lo, hi) != prev_slice:
                vxs = yield from self.vx.read_range(lo, hi)
                vys = yield from self.vy.read_range(lo, hi)
                prev_slice = (lo, hi)
            # Phase 1: gather all positions, build the replicated tree.
            yield from ctx.phase(f"build.{step}")
            xs = []
            append_x = xs.append
            for i in range(n):
                pxrd.addr = pxbase + i * pxword
                yield pxrd
                append_x(pxdata[i])
            ys = []
            append_y = ys.append
            for i in range(n):
                pyrd.addr = pybase + i * pyword
                yield pyrd
                append_y(pydata[i])
            memo = self._tree_memo
            if not (
                memo is not None
                and memo[0] == step
                and memo[1] == xs
                and memo[2] == ys
                and memo[3] == ms
            ):
                fmemo = _force_memo_for(xs, ys, ms, self.theta, self.eps)
                memo = self._tree_memo = [step, xs, ys, ms, fmemo, None]
            step_forces = memo[4]
            nnodes = step_forces.nnodes
            if nnodes is None:
                nnodes = _tree_of(memo).nnodes
            yield Compute(nnodes * _BUILD_NODE_COST + n * 4 * _INSERT_LEVEL_COST)
            # Phase 2: forces on owned bodies (private computation).
            yield from ctx.phase(f"force.{step}")
            forces = step_forces.forces
            acc: dict[int, tuple[float, float]] = {}
            for i in range(lo, hi):
                r = forces.get(i)
                if r is None:
                    r = forces[i] = force_and_cost(
                        _tree_of(memo), i, xs, ys, self.theta, self.eps
                    )
                ax, ay, cost = r
                acc[i] = (ax, ay)
                yield Compute(cost)
            yield from self.barrier.wait()
            # Phase 3: integrate owned bodies and publish positions.
            # Writes go in per-array passes so consecutive words of a
            # cache line coalesce in the merge buffer.
            yield from ctx.phase(f"update.{step}")
            nxs, nys = [], []
            for k, i in enumerate(range(lo, hi)):
                ax, ay = acc[i]
                vxs[k] += ax * self.dt
                vys[k] += ay * self.dt
                nxs.append(xs[i] + vxs[k] * self.dt)
                nys.append(ys[i] + vys[k] * self.dt)
                yield _C_UPDATE
            yield from self.px.write_range(lo, nxs)
            yield from self.py.write_range(lo, nys)
            last_of_epoch = (
                step == self.steps - 1
                or self._partition(ctx.pid, ctx.nprocs, step + 1) != (lo, hi)
            )
            if last_of_epoch:
                yield from self.vx.write_range(lo, vxs)
                yield from self.vy.write_range(lo, vys)
            yield from self.barrier.wait()

    # ------------------------------------------------------------------
    def verify(self) -> None:
        want_pos, want_vel = reference_run(
            self.bodies, self.steps, self.dt, self.theta, self.eps
        )
        got_pos = np.column_stack([self.px.snapshot(), self.py.snapshot()])
        got_vel = np.column_stack([self.vx.snapshot(), self.vy.snapshot()])
        if not np.allclose(got_pos, want_pos, rtol=1e-10, atol=1e-12):
            err = float(np.abs(got_pos - want_pos).max())
            raise AssertionError(f"Barnes-Hut positions diverge, max err {err}")
        if not np.allclose(got_vel, want_vel, rtol=1e-10, atol=1e-12):
            err = float(np.abs(got_vel - want_vel).max())
            raise AssertionError(f"Barnes-Hut velocities diverge, max err {err}")
