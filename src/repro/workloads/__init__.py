"""Synthetic workload generators standing in for the paper's inputs."""

from .bodies import BodySet, direct_forces, two_clusters, uniform_disc
from .graphs import FlowNetwork, random_flow_network
from .keys import nas_keys, reference_ranks, uniform_keys
from .matrices import (
    SparseSPD,
    SymbolicFactor,
    find_supernodes,
    grid_laplacian,
    random_spd,
    symbolic_cholesky,
)

__all__ = [
    "BodySet",
    "FlowNetwork",
    "SparseSPD",
    "SymbolicFactor",
    "direct_forces",
    "find_supernodes",
    "grid_laplacian",
    "nas_keys",
    "random_flow_network",
    "random_spd",
    "reference_ranks",
    "symbolic_cholesky",
    "two_clusters",
    "uniform_disc",
    "uniform_keys",
]
