"""The z-machine benchmarking methodology (the paper's contribution).

A *study* runs one application on the z-machine and on a set of real
memory systems, verifies every run against the application's reference,
and decomposes each system's execution time into the paper's overhead
categories relative to the z-machine ideal.
"""
# lint: ok-module[wall-clock] — measurement harness: wall-clock here times the
# host, never the simulation; simulated timing comes only from cycle counts.

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

from ..apps.base import Application
from ..config import MachineConfig
from ..mem.systems import PAPER_SYSTEMS
from ..obs.manifest import build_manifest
from ..sim.stats import SimResult
from .parallel import JobResult, JobSpec, ResultCache, run_jobs


@dataclass
class SystemResult:
    """Breakdown of one (application, memory system) run."""

    system: str
    total_time: float
    busy: float
    read_stall: float
    write_stall: float
    buffer_flush: float
    sync_wait: float
    overhead_pct: float
    reads: int
    writes: int
    read_misses: int
    network_messages: int
    network_bytes: int
    traffic: dict[str, float] = field(default_factory=dict)
    #: The run payload this row was built from (``None`` when built from
    #: a bare :class:`SimResult`); Table 1 reads the z-mc run from here.
    job: JobResult | None = field(default=None, repr=False, compare=False)

    @property
    def overhead(self) -> float:
        return self.read_stall + self.write_stall + self.buffer_flush

    @classmethod
    def from_sim(
        cls, system: str, result: SimResult, traffic: dict[str, float] | None = None
    ) -> SystemResult:
        """Build from the picklable run payload (no machine needed)."""
        return cls(
            system=system,
            total_time=result.total_time,
            busy=result.mean_busy,
            read_stall=result.mean_read_stall,
            write_stall=result.mean_write_stall,
            buffer_flush=result.mean_buffer_flush,
            sync_wait=result.mean_sync_wait,
            overhead_pct=result.overhead_pct,
            reads=result.total_reads,
            writes=result.total_writes,
            read_misses=result.total_read_misses,
            network_messages=result.network_messages,
            network_bytes=result.network_bytes,
            traffic=dict(traffic or {}),
        )

    @classmethod
    def from_job(cls, job: JobResult) -> SystemResult:
        row = cls.from_sim(job.system, job.result, job.traffic)
        row.job = job
        return row


@dataclass
class StudyResult:
    """Results of one application across several memory systems."""

    app_name: str
    config: MachineConfig
    systems: list[SystemResult]
    #: Run manifest (what/where/how fast) — see :mod:`repro.obs.manifest`.
    manifest: dict = field(default_factory=dict)

    def by_system(self, name: str) -> SystemResult:
        for s in self.systems:
            if s.system == name:
                return s
        raise KeyError(f"no result for system {name!r} in study of {self.app_name}")

    @property
    def zmachine(self) -> SystemResult:
        return self.by_system("z-mc")


def run_study(
    app_factory: Callable[[], Application],
    config: MachineConfig | None = None,
    systems: tuple[str, ...] = PAPER_SYSTEMS,
    verify: bool = True,
    max_ops: int | None = None,
    jobs: int | None = 1,
    cache: ResultCache | None = None,
) -> StudyResult:
    """Run ``app_factory()`` on every memory system in ``systems``.

    A fresh application instance is built per system (shared state is
    per-run).  Every run is verified against the application's
    reference implementation unless ``verify=False``.

    The per-system runs are independent; ``jobs > 1`` executes them
    concurrently in worker processes (``None``/``0`` = one per CPU) and
    ``cache`` reuses on-disk results from previous identical runs — see
    :mod:`repro.core.parallel`.  Results are identical regardless of
    ``jobs``; only wall-clock time changes.
    """
    cfg = config if config is not None else MachineConfig()
    specs = [
        JobSpec(factory=app_factory, system=system, config=cfg, verify=verify, max_ops=max_ops)
        for system in systems
    ]
    t0 = time.perf_counter()
    jobs_done = run_jobs(specs, jobs=jobs, cache=cache)
    wall = time.perf_counter() - t0
    results = [SystemResult.from_job(job) for job in jobs_done]
    app_name = jobs_done[0].app if jobs_done else "?"
    manifest = build_manifest(
        "study",
        config=cfg,
        app=app_name or "?",
        systems=list(systems),
        wall_seconds=wall,
        jobs=jobs_done,
        cache=cache,
    )
    return StudyResult(
        app_name=app_name or "?", config=cfg, systems=results, manifest=manifest
    )
