"""Table 1: inherent communication and observed costs on the z-machine.

For each application the paper reports the number of shared writes, the
fraction of execution time the propagation of those writes represents
(the data's time on the network, almost all of it hidden under
computation), and the observed cost — the read-stall cycles actually
seen, which are ≈0 because the inherent communication is overlapped.

A row is each application's z-machine run, the same run as the z-mc bar
of a study: :func:`table1` runs those z-machine jobs on their own,
:func:`table1_rows` reads them from studies already run.  Either way the
run went through :func:`repro.core.parallel.run_jobs` (pool and cache).
"""
# lint: ok-module[wall-clock] — measurement harness: wall-clock here times the
# host, never the simulation; simulated timing comes only from cycle counts.

from __future__ import annotations

import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from ..apps.base import Application
from ..config import MachineConfig
from ..obs.manifest import build_manifest
from .parallel import JobResult, JobSpec, ResultCache, run_jobs
from .study import StudyResult


@dataclass
class Table1Row:
    app: str
    shared_writes: int
    #: % of total execution time the write issues represent (paper col 2)
    write_pct: float
    #: read-stall cycles actually observed (the unhidden part; paper col 3)
    observed_cost: float
    #: cycles the written data spends on the (ideal) network — almost all
    #: of it hidden under computation
    network_cycles: float
    #: network time as % of total execution time
    network_pct: float
    total_time: float


def _row_from_job(cfg: MachineConfig, job: JobResult | None) -> Table1Row:
    """Assemble a row from a z-machine run's picklable payload."""
    assert job is not None and job.system == "z-mc", "table 1 rows require a z-machine run"
    result = job.result
    total = result.total_time
    shared_writes = int(job.traffic["shared_writes"])
    network_cycles = job.traffic["network_cycles"]
    observed = sum(p.read_stall for p in result.procs)
    return Table1Row(
        app=job.app,
        shared_writes=shared_writes,
        write_pct=(
            100.0 * shared_writes * cfg.cache_hit_cycles / total if total else 0.0
        ),
        observed_cost=observed,
        network_cycles=network_cycles,
        network_pct=100.0 * network_cycles / total if total else 0.0,
        total_time=total,
    )


def table1(
    app_factories: dict[str, Callable[[], Application]],
    config: MachineConfig | None = None,
    verify: bool = True,
    jobs: int | None = 1,
    cache: ResultCache | None = None,
) -> tuple[list[Table1Row], dict]:
    """Table 1 for a set of applications, plus its run manifest.

    The per-application z-machine runs are independent, so ``jobs > 1``
    fans them out over worker processes and ``cache`` reuses previous
    identical runs (see :mod:`repro.core.parallel`).
    """
    cfg = config if config is not None else MachineConfig()
    specs = [
        JobSpec(factory=factory, system="z-mc", config=cfg, verify=verify)
        for factory in app_factories.values()
    ]
    t0 = time.perf_counter()
    jobs_done = run_jobs(specs, jobs=jobs, cache=cache)
    manifest = build_manifest(
        "table1",
        config=cfg,
        app=",".join(app_factories),
        systems=["z-mc"],
        wall_seconds=time.perf_counter() - t0,
        jobs=jobs_done,
        cache=cache,
    )
    return [_row_from_job(cfg, job) for job in jobs_done], manifest


def table1_rows(studies: Iterable[StudyResult]) -> list[Table1Row]:
    """Table 1 from studies already run: one row from each study's z-mc run."""
    return [_row_from_job(study.config, study.zmachine.job) for study in studies]
