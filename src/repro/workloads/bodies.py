"""Initial conditions for the Barnes-Hut N-body application.

The paper simulates 128 bodies over 50 time steps (with an artificial
boost perturbing the sharing pattern every 10 steps).  We generate 2-D
body distributions: a uniform disc or a two-cluster configuration whose
interaction pattern changes as the clusters approach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class BodySet:
    """Positions, velocities and masses of N bodies in 2-D."""

    pos: np.ndarray  # (n, 2)
    vel: np.ndarray  # (n, 2)
    mass: np.ndarray  # (n,)

    @property
    def n(self) -> int:
        return len(self.mass)


def uniform_disc(n: int = 128, radius: float = 1.0, seed: int = 0) -> BodySet:
    """Bodies scattered uniformly in a disc with small random velocities."""
    if n < 1:
        raise ValueError("need at least one body")
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.random(n))
    theta = 2 * np.pi * rng.random(n)
    pos = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    vel = 0.05 * rng.standard_normal((n, 2))
    mass = 0.5 + rng.random(n)
    return BodySet(pos=pos, vel=vel, mass=mass)


def two_clusters(n: int = 128, separation: float = 4.0, seed: int = 0) -> BodySet:
    """Two equal clusters drifting toward each other (phase changes)."""
    rng = np.random.default_rng(seed)
    half = n // 2
    a = uniform_disc(half, radius=0.5, seed=seed)
    b = uniform_disc(n - half, radius=0.5, seed=seed + 1)
    a.pos[:, 0] -= separation / 2
    b.pos[:, 0] += separation / 2
    a.vel[:, 0] += 0.2
    b.vel[:, 0] -= 0.2
    return BodySet(
        pos=np.vstack([a.pos, b.pos]),
        vel=np.vstack([a.vel, b.vel]),
        mass=np.concatenate([a.mass, b.mass]),
    )


def direct_forces(bodies: BodySet, eps: float = 1e-3) -> np.ndarray:
    """O(N^2) gravitational accelerations (verification reference)."""
    pos, mass = bodies.pos, bodies.mass
    d = pos[None, :, :] - pos[:, None, :]
    r2 = (d**2).sum(axis=2) + eps**2
    np.fill_diagonal(r2, np.inf)
    inv_r3 = r2**-1.5
    return (d * (mass[None, :] * inv_r3)[:, :, None]).sum(axis=1)
