"""Run the correctness checkers over an apps × systems matrix.

One :class:`CheckSpec` is one instrumented simulation: the application
runs with a :class:`~repro.analysis.checkers.invariants.CheckedMemorySystem`
wrapped around the memory system (protocol invariants audited after
every operation) and a :class:`~repro.sim.trace.TracingMemory`
subscribed to the engine observer, then the happens-before race pass
runs over the trace.

Specs and outcomes are picklable and carry a stable fingerprint, so the
matrix fans out through :func:`repro.core.parallel.run_jobs` and caches
through the ordinary :class:`~repro.core.parallel.ResultCache` — a CI
re-run with unchanged sources is near-free.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from ...apps.factory import AppFactory
from ...config import MachineConfig
from ...core.parallel import CACHE_SCHEMA, ResultCache, run_jobs
from ...runtime.context import Machine
from ...sim.trace import TracingMemory
from .invariants import CheckedMemorySystem, Violation
from .races import RaceReport, detect_races

#: Default trajectory file for ``repro check --bench-out``.
CHECK_BENCH_FILE = "BENCH_check.json"


@dataclass(frozen=True)
class CheckSpec:
    """One instrumented run: application factory + system + config."""

    factory: AppFactory
    system: str
    config: MachineConfig
    max_events: int = 500_000
    max_ops: int | None = None
    verify: bool = True

    def fingerprint(self) -> str:
        """Stable identity for cache keying (see ``JobSpec``)."""
        return (
            f"task=check;schema={CACHE_SCHEMA};factory={self.factory!r};"
            f"system={self.system};config={self.config!r};"
            f"max_events={self.max_events};max_ops={self.max_ops};"
            f"verify={self.verify}"
        )


@dataclass
class CheckOutcome:
    """Picklable result of one instrumented run."""

    app: str
    system: str
    races: RaceReport
    violations: list[Violation]
    #: Total invariant failures including deduplicated/bounded drops.
    violation_total: int
    events: int
    elapsed: float = 0.0
    cached: bool = False

    @property
    def clean(self) -> bool:
        return self.races.clean and self.violation_total == 0

    def describe(self) -> str:
        status = "ok" if self.clean else "FINDINGS"
        head = f"== {self.app} on {self.system}: {status}"
        if self.clean:
            return head
        parts = [head]
        if not self.races.clean:
            parts.append(self.races.describe())
        if self.violation_total:
            parts.append(f"{self.violation_total} invariant violation(s):")
            parts += [f"  {v.describe()}" for v in self.violations[:20]]
        return "\n".join(parts)


def execute_check(spec: CheckSpec) -> CheckOutcome:
    """Run one :class:`CheckSpec` in the current process."""
    t0 = time.perf_counter()
    app = spec.factory()
    machine = Machine(spec.config, spec.system, max_ops=spec.max_ops)
    app.setup(machine)
    checked = CheckedMemorySystem.attach(machine)
    tracer = TracingMemory.attach(machine, max_events=spec.max_events)
    machine.run(app.worker)
    if spec.verify:
        app.verify()
    checked.final_check()
    report = detect_races(
        tracer.events,
        spec.config.nprocs,
        shm=machine.shm,
        trace_dropped=tracer.dropped,
    )
    return CheckOutcome(
        app=app.name,
        system=spec.system,
        races=report,
        violations=checked.violations,
        violation_total=len(checked.violations) + checked.dropped,
        events=len(tracer.events) + tracer.dropped,
        elapsed=time.perf_counter() - t0,
    )


def check_matrix(
    factories: dict[str, Callable[[], object]],
    systems: Sequence[str],
    config: MachineConfig,
    max_events: int = 500_000,
) -> list[CheckSpec]:
    """Build the apps × systems spec matrix."""
    return [
        CheckSpec(factory=factory, system=system, config=config, max_events=max_events)
        for factory in factories.values()
        for system in systems
    ]


def run_checks(
    specs: Sequence[CheckSpec],
    jobs: int | None = 1,
    cache: ResultCache | None = None,
) -> list[CheckOutcome]:
    """Execute ``specs`` (pool fan-out + result cache) in spec order."""
    return run_jobs(specs, jobs=jobs, cache=cache, executor=execute_check)


def format_outcomes(outcomes: Sequence[CheckOutcome]) -> str:
    """Summary table plus detail for every outcome with findings."""
    lines = [
        f"{'application':<12s} {'system':<8s} {'events':>8s} {'races':>6s} "
        f"{'violations':>11s} {'status':>8s}"
    ]
    for o in outcomes:
        status = "ok" if o.clean else "FINDINGS"
        if o.cached:
            status += " (cached)"
        lines.append(
            f"{o.app:<12s} {o.system:<8s} {o.events:>8d} {o.races.total:>6d} "
            f"{o.violation_total:>11d} {status:>8s}"
        )
    dirty = [o for o in outcomes if not o.clean]
    for o in dirty:
        lines.append("")
        lines.append(o.describe())
    return "\n".join(lines)


@dataclass
class CheckBench:
    """Wall-clock record of one checker pass (``repro bench`` style)."""

    n_runs: int
    wall_s: float
    cached_runs: int
    jobs: int
    scale: str
    simulated_events: int = 0
    #: Machine size the pass ran at — 0 means "unrecorded" (legacy docs).
    #: Timing trajectories at different P are not comparable.
    nprocs: int = 0
    extra: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        return {
            "bench": "correctness-check",
            "scale": self.scale,
            "nprocs": self.nprocs,
            "jobs": self.jobs,
            "cpu_count": os.cpu_count(),
            "n_runs": self.n_runs,
            "wall_s": round(self.wall_s, 4),
            "cached_runs": self.cached_runs,
            "cache_hit_rate": round(self.cached_runs / self.n_runs, 4) if self.n_runs else 0.0,
            "events_checked": self.simulated_events,
            **self.extra,
        }


def write_check_bench(
    outcomes: Sequence[CheckOutcome],
    wall_s: float,
    jobs: int,
    scale: str,
    out: str | os.PathLike = CHECK_BENCH_FILE,
    nprocs: int = 0,
) -> dict:
    """Write the ``BENCH_check.json`` timing trajectory; returns the doc."""
    bench = CheckBench(
        n_runs=len(outcomes),
        wall_s=wall_s,
        cached_runs=sum(1 for o in outcomes if o.cached),
        jobs=jobs,
        scale=scale,
        nprocs=nprocs,
        simulated_events=sum(o.events for o in outcomes),
    )
    doc = bench.to_doc()
    Path(out).write_text(json.dumps(doc, indent=2) + "\n")
    return doc


__all__ = [
    "CHECK_BENCH_FILE",
    "CheckBench",
    "CheckOutcome",
    "CheckSpec",
    "check_matrix",
    "execute_check",
    "format_outcomes",
    "run_checks",
    "write_check_bench",
]
