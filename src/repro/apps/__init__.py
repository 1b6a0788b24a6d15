"""The paper's four applications, runnable on any memory system."""

from .barneshut import BarnesHut, reference_run
from .base import Application, run_machine, run_on
from .cholesky import Cholesky
from .factory import APP_REGISTRY, AppFactory
from .intsort import IntegerSort, bucket_stable_ranks
from .maxflow import Maxflow
from .presets import (
    SCALES,
    default_scale,
    large_scale,
    paper_scale,
    preset,
    resolve_apps,
    smoke_scale,
)

__all__ = [
    "APP_REGISTRY",
    "AppFactory",
    "Application",
    "BarnesHut",
    "Cholesky",
    "IntegerSort",
    "Maxflow",
    "SCALES",
    "bucket_stable_ranks",
    "default_scale",
    "large_scale",
    "paper_scale",
    "preset",
    "resolve_apps",
    "smoke_scale",
    "reference_run",
    "run_machine",
    "run_on",
]
