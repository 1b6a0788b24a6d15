"""Run the correctness checkers over an apps × systems matrix.

:func:`execute_check` runs one ordinary
:class:`~repro.core.parallel.JobSpec` as an instrumented simulation:
the application runs with two engine observers subscribed, an
:class:`~repro.analysis.checkers.invariants.InvariantChecker` (protocol
invariants audited after every memory-system operation) and a
:class:`~repro.analysis.checkers.races.RaceDetector` (the
happens-before race pass, run as the accesses arrive).

Outcomes are picklable, so the matrix fans out through
:func:`repro.core.parallel.run_jobs` with ``executor=execute_check`` and
caches through the ordinary :class:`~repro.core.parallel.ResultCache`
(the executor is part of the key, so a check never collides with a
plain run of the same spec) — a CI re-run with unchanged sources is
near-free.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from ...apps.base import run_machine
from ...config import MachineConfig
from ...core.parallel import JobSpec
from .invariants import InvariantChecker, Violation
from .races import RaceDetector, RaceReport


@dataclass
class CheckOutcome:
    """Picklable result of one instrumented run."""

    app: str
    system: str
    races: RaceReport
    violations: list[Violation]
    #: Total invariant failures including deduplicated/bounded drops.
    violation_total: int
    #: Engine-observer callbacks of the run (accesses, sync ops, phases).
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


def execute_check(spec: JobSpec) -> CheckOutcome:
    """Run ``spec`` with both checkers attached, in the current process."""
    t0 = time.perf_counter()
    app = spec.factory()
    _, _, checker, detector = run_machine(
        app,
        spec.system,
        spec.config,
        verify=spec.verify,
        max_ops=spec.max_ops,
        attach=(InvariantChecker.attach, RaceDetector.attach),
    )
    checker.final_check()
    return CheckOutcome(
        app=app.name,
        system=spec.system,
        races=detector.report,
        violations=checker.violations,
        violation_total=len(checker.violations) + checker.dropped,
        events=detector.events,
        elapsed=time.perf_counter() - t0,
    )


def check_matrix(
    factories: dict[str, Callable[[], object]],
    systems: Sequence[str],
    config: MachineConfig,
) -> list[JobSpec]:
    """Build the apps × systems spec matrix."""
    return [
        JobSpec(factory=factory, system=system, config=config)
        for factory in factories.values()
        for system in systems
    ]


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


__all__ = [
    "CheckOutcome",
    "check_matrix",
    "execute_check",
    "format_outcomes",
]
