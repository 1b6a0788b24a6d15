"""Parameter sweeps over one machine parameter.

``sweep`` varies one machine parameter across a list of values, runs a
fresh application instance per point through
:func:`repro.core.parallel.run_jobs`, and returns an ordered series of
results.  ``examples/architectural_implications.py`` uses it for the
paper's Section 6 "architectural implications" experiments.
"""
# lint: ok-module[wall-clock] — measurement harness: wall-clock here times the
# host, never the simulation; simulated timing comes only from cycle counts.

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

from ..apps.base import Application
from ..config import MachineConfig
from ..obs.manifest import build_manifest
from ..sim.stats import SimResult
from .parallel import JobSpec, ResultCache, run_jobs


@dataclass
class SweepPoint:
    """One point of a parameter sweep; all metrics live in ``result``."""

    value: object
    result: SimResult

    @property
    def total_time(self) -> float:
        return self.result.total_time

    @property
    def overhead_pct(self) -> float:
        return self.result.overhead_pct


@dataclass
class SweepResult:
    """Ordered series over one parameter."""

    parameter: str
    system: str
    points: list[SweepPoint]
    #: Run manifest (what/where/how fast) — see :mod:`repro.obs.manifest`.
    manifest: dict = field(default_factory=dict)

    def series(self, metric: str) -> list[tuple[object, float]]:
        """(value, metric) pairs; metric is a SimResult attribute name
        (e.g. ``mean_read_stall``, ``total_time``, ``overhead_pct``)."""
        return [(p.value, getattr(p.result, metric)) for p in self.points]

    def values(self) -> list[object]:
        return [p.value for p in self.points]

    def format(self, metrics: tuple[str, ...] = ("total_time", "overhead_pct")) -> str:
        header = f"{self.parameter:>20s} " + " ".join(f"{m:>16s}" for m in metrics)
        lines = [f"sweep of {self.parameter} on {self.system}", header]
        for p in self.points:
            row = f"{str(p.value):>20s} "
            row += " ".join(f"{getattr(p.result, m):16.1f}" for m in metrics)
            lines.append(row)
        return "\n".join(lines)


def sweep(
    app_factory: Callable[[], Application],
    parameter: str,
    values: list,
    system: str = "RCinv",
    base_config: MachineConfig | None = None,
    verify: bool = True,
    jobs: int | None = 1,
    cache: ResultCache | None = None,
) -> SweepResult:
    """Run ``app_factory()`` on ``system`` for each config value.

    ``parameter`` names a :class:`MachineConfig` field; every point uses
    ``base_config.replace(parameter=value)``.

    Points are independent runs: ``jobs > 1`` executes them in worker
    processes and ``cache`` reuses previous identical runs (see
    :mod:`repro.core.parallel`).
    """
    cfg = base_config if base_config is not None else MachineConfig()
    if not hasattr(cfg, parameter):
        raise ValueError(f"MachineConfig has no parameter {parameter!r}")
    t0 = time.perf_counter()
    specs = [
        JobSpec(
            factory=app_factory,
            system=system,
            config=cfg.replace(**{parameter: value}),
            verify=verify,
        )
        for value in values
    ]
    jobs_done = run_jobs(specs, jobs=jobs, cache=cache)
    points = [SweepPoint(value=value, result=job.result) for value, job in zip(values, jobs_done)]
    manifest = build_manifest(
        "sweep",
        config=cfg,
        systems=[system],
        wall_seconds=time.perf_counter() - t0,
        jobs=jobs_done,
        cache=cache,
        extra={"parameter": parameter, "values": [repr(v) for v in values]},
    )
    return SweepResult(parameter=parameter, system=system, points=points, manifest=manifest)
