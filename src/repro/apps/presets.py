"""Input presets: the paper's problem sizes and scaled-down defaults.

The paper's inputs (Section 5):

* Cholesky — 1086x1086 sparse SPD matrix, 30,824 non-zeros, 110,461 in
  the factor, 506 supernodes;
* IS — 32K integers, 1K buckets;
* Maxflow — 200 vertices, 400 bidirectional edges;
* Barnes-Hut — 128 bodies, 50 time steps, sharing boost every 10 steps.

``paper_scale()`` builds application factories at those sizes (for the
matrix we generate a grid Laplacian with a comparable non-zero count —
a 33x33 grid gives 1089 columns, the closest square to the paper's
1086).  Expect long wall-clock times: this is execution-driven
simulation in Python.  ``default_scale()`` is the reduced configuration
used by the benchmark harness; ``smoke_scale()`` is for tests.

``resolve_apps(name, scale)`` is how every command names its cells: a
canonical name, an alias (any case) or ``all``.
"""

from __future__ import annotations

from collections.abc import Callable

from .base import Application
from .factory import APP_REGISTRY, AppFactory

#: (factory, expect_reuse) per application name.  Factories are
#: :class:`AppFactory` instances, so every preset is picklable and can
#: run through the process-pool layer (``repro.core.parallel``).
Preset = dict[str, tuple[Callable[[], Application], bool]]

#: Named preset scales, for CLI/bench selection.
SCALES = ("smoke", "small", "default", "large", "paper")


def paper_scale() -> Preset:
    """The paper's input sizes (slow: minutes per system per app)."""
    return {
        "Cholesky": (AppFactory("Cholesky", grid=(33, 33)), False),
        "IS": (AppFactory("IS", n_keys=32768, nbuckets=1024), False),
        "Maxflow": (AppFactory("Maxflow", n=200, extra_edges=400, seed=0), True),
        "Nbody": (AppFactory("Nbody", n_bodies=128, steps=50, boost_interval=10), True),
    }


def default_scale() -> Preset:
    """The benchmark harness's reduced inputs (seconds per run)."""
    return {
        "Cholesky": (AppFactory("Cholesky", grid=(10, 10)), False),
        "IS": (AppFactory("IS", n_keys=2048, nbuckets=128), False),
        "Maxflow": (AppFactory("Maxflow", n=48, extra_edges=96, seed=0), True),
        "Nbody": (AppFactory("Nbody", n_bodies=128, steps=10, boost_interval=5), True),
    }


def large_scale() -> Preset:
    """~10x the default workloads, for the P=64/256 scaling regime.

    Sized so overhead decompositions stay discriminating as the machine
    grows: every application carries enough parallel slack (keys,
    columns, vertices, bodies) to keep 64-256 processors busy, at
    roughly an order of magnitude more simulated work than ``default``.
    """
    return {
        "Cholesky": (AppFactory("Cholesky", grid=(20, 20)), False),
        "IS": (AppFactory("IS", n_keys=20480, nbuckets=256), False),
        "Maxflow": (AppFactory("Maxflow", n=150, extra_edges=300, seed=0), True),
        "Nbody": (AppFactory("Nbody", n_bodies=512, steps=10, boost_interval=5), True),
    }


def small_scale() -> Preset:
    """Between smoke and default: the scenario matrix's scale.

    Large enough that degradation visibly moves the stall decomposition
    (the smoke inputs barely touch the network), small enough that the
    full scenario x app x system matrix finishes in seconds.
    """
    return {
        "Cholesky": (AppFactory("Cholesky", grid=(6, 6)), False),
        "IS": (AppFactory("IS", n_keys=512, nbuckets=64), False),
        "Maxflow": (AppFactory("Maxflow", n=24, extra_edges=48, seed=0), True),
        "Nbody": (AppFactory("Nbody", n_bodies=32, steps=3, boost_interval=1), True),
    }


def smoke_scale() -> Preset:
    """Tiny inputs for fast tests."""
    return {
        "Cholesky": (AppFactory("Cholesky", grid=(4, 4)), False),
        "IS": (AppFactory("IS", n_keys=128, nbuckets=16), False),
        "Maxflow": (AppFactory("Maxflow", n=12, extra_edges=18, seed=1), True),
        "Nbody": (AppFactory("Nbody", n_bodies=12, steps=2, boost_interval=1), True),
    }


def preset(scale: str) -> Preset:
    """Look up a preset by scale name (one of :data:`SCALES`)."""
    try:
        return {
            "smoke": smoke_scale,
            "small": small_scale,
            "default": default_scale,
            "large": large_scale,
            "paper": paper_scale,
        }[scale]()
    except KeyError:
        raise ValueError(f"unknown scale {scale!r}; choose from {', '.join(SCALES)}") from None


#: Names accepted besides the canonical :data:`APP_REGISTRY` keys, which
#: also match in any case (``is``, ``cholesky``, ``racydemo``...).
APP_ALIASES = {"intsort": "IS", "barneshut": "Nbody", "racy": "RacyDemo"}


def resolve_apps(name: str, scale: str = "default") -> Preset:
    """``{canonical: (factory, expect_reuse)}`` for one app name or ``all``.

    ``all`` is the scale's preset.  An app without a preset entry
    (``RacyDemo``) runs with its constructor defaults and
    ``expect_reuse=False``; ``all`` never includes it.
    """
    apps = preset(scale)
    if name == "all":
        return apps
    lookup = {key.lower(): key for key in APP_REGISTRY} | APP_ALIASES
    canonical = lookup.get(name.lower())
    if canonical is None:
        raise ValueError(
            f"unknown application {name!r}; choose from all, {', '.join(APP_REGISTRY)} "
            f"or an alias ({', '.join(sorted(APP_ALIASES))}), in any case"
        )
    return {canonical: apps.get(canonical, (AppFactory(canonical), False))}
