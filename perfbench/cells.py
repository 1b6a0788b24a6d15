"""Benchmark workloads, cell execution and the correctness gate.

A cell is one application on one memory system, at P=16 (the paper's
machine) with the ``large`` preset inputs.  Every execution builds a
fresh application and ``Machine``, so simulated caches start cold.  The
seed feeds the IS keys, the Maxflow graph (through
:data:`MAXFLOW_GRAPH_SEEDS`) and the Nbody bodies; Cholesky's grid
Laplacian does not depend on it.

Why these workloads:

* ``protocol`` -- Cholesky, IS and Maxflow on the four RC systems.
  Coherence transactions, the routed mesh and lock traffic carry the
  host time (Maxflow/RCinv: 27% mem, 22% network, 18% sync), so a
  memory or network speed-up shows here.
* ``ideal`` -- the four applications on the z-machine: no protocol and
  an ideal network, so the engine, the event wheel and the application
  generators carry the time (Nbody/z-mc: 57% app, 19% wheel).  A
  protocol or network change should read flat here; an engine change
  shows on both.
* ``observed`` -- Cholesky and Maxflow on RCinv and RCupd, each run plain
  and then with ``TracingMemory``, ``MetricsCollector`` and
  ``AttributionCollector`` attached and its attribution report built.
  Every access then crosses three decorators, so a memory-system change
  that helps plain runs but costs observed ones shows in ``obs_ratio``.

``protocol`` and ``ideal`` also run their IS cell observed (IS does the
same work for every seed), so every workload reports ``obs_ratio``.
"""

from __future__ import annotations

import gc
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from normalise import Normaliser
from spans import CellTrace, NullProbe

from repro.apps.factory import AppFactory
from repro.apps.presets import preset
from repro.config import MachineConfig
from repro.obs.attrib import OVERHEAD_CATEGORIES, AttributionCollector, build_report
from repro.obs.metrics import MetricsCollector
from repro.runtime.context import Machine
from repro.sim.reference import capture_outcome, run_case
from repro.sim.stats import SimResult
from repro.sim.trace import TracingMemory

NPROCS = 16
CONFIG = MachineConfig(nprocs=NPROCS)
RC_SYSTEMS = ("RCinv", "RCupd", "RCadapt", "RCcomp")
SEEDED_APPS = ("IS", "Maxflow", "Nbody")

#: Maxflow graph seeds the benchmark seed picks from.  Of the random
#: ``large`` graphs drawn from seeds 0-31, 19 send the push-relabel
#: workers into a run about 60x longer (3.4M engine events against
#: 30-64k, on every memory system), which no run's time budget fits and
#: which would make the workload's cost depend on the seed.  These are
#: the other 13.
MAXFLOW_GRAPH_SEEDS = (0, 2, 5, 7, 8, 9, 16, 20, 21, 23, 26, 30, 31)

#: workload -> ((app, system) cells, the cells also run observed)
WORKLOADS: dict[str, tuple[list[tuple[str, str]], set[tuple[str, str]]]] = {
    "protocol": (
        [(a, s) for a in ("Cholesky", "IS", "Maxflow") for s in RC_SYSTEMS],
        {("IS", "RCinv")},
    ),
    "ideal": (
        [(a, "z-mc") for a in ("Cholesky", "IS", "Maxflow", "Nbody")],
        {("IS", "z-mc")},
    ),
    "observed": (
        [(a, s) for a in ("Cholesky", "Maxflow") for s in ("RCinv", "RCupd")],
        {(a, s) for a in ("Cholesky", "Maxflow") for s in ("RCinv", "RCupd")},
    ),
}

#: Committed outcome digests (seed 0, large inputs).  Any other seed or
#: scale is checked against the reference engine instead.
EXPECTED_FILE = Path(__file__).with_name("expected.json")
EXPECTED_SCALE = "large"


class CellFailure(AssertionError):
    """A cell ran but its outcome failed the correctness gate."""


@dataclass(frozen=True)
class Cell:
    app: str
    system: str
    factory: AppFactory
    #: Also run an observed twin of this cell every pass.
    observe: bool
    #: Names the inputs: the cell plus the seed, for seeded applications.
    ident: str

    @property
    def name(self) -> str:
        return f"{self.app}/{self.system}"


def app_factory(app: str, seed: int, scale: str) -> AppFactory:
    """The preset factory for ``app`` with its inputs drawn from ``seed``."""
    base, _ = preset(scale)[app]
    kwargs = dict(base.kwargs)
    if app == "Maxflow":
        kwargs["seed"] = MAXFLOW_GRAPH_SEEDS[seed % len(MAXFLOW_GRAPH_SEEDS)]
    elif app in SEEDED_APPS:
        kwargs["seed"] = seed
    return AppFactory(app, **kwargs)


def build_cells(workload: str, seed: int, scale: str = "large") -> list[Cell]:
    pairs, observed = WORKLOADS[workload]
    return [
        Cell(
            app, system, app_factory(app, seed, scale), (app, system) in observed,
            f"{app}/{system}" + (f"@{seed}" if app in SEEDED_APPS else ""),
        )
        for app, system in pairs
    ]


def digest(outcome: dict) -> str:
    """SHA-256 of an outcome document; floats serialise exactly."""
    return hashlib.sha256(json.dumps(outcome, sort_keys=True).encode()).hexdigest()


def reference_digest(cell: Cell) -> str:
    """Outcome digest of ``cell`` on the plain-heapq reference engine."""
    return digest(run_case(cell.factory, cell.system, nprocs=NPROCS, engine="reference"))


def expected_digests(cells: list[Cell], scale: str) -> dict[str, str | None]:
    """Expected digest per cell ident: committed, else from the reference engine.

    A reference run that raises leaves ``None``, which every execution of
    that cell then fails against.
    """
    committed: dict[str, str] = {}
    if scale == EXPECTED_SCALE:
        committed = json.loads(EXPECTED_FILE.read_text())["digests"]
    out: dict[str, str | None] = {}
    for cell in cells:
        if cell.ident in out:
            continue
        if cell.ident in committed:
            out[cell.ident] = committed[cell.ident]
            continue
        try:
            out[cell.ident] = reference_digest(cell)
        except Exception as exc:  # the gate counts this cell as failed
            print(f"reference run of {cell.ident} failed: {exc!r}")
            out[cell.ident] = None
    return out


@dataclass
class Sample:
    """One execution of a cell, timed and checked.

    Host seconds are as measured; ``setup_f`` and ``run_f`` are the
    normaliser factors of the kernel marks around setup and around the
    run.
    """

    inputs_host_s: float
    machine_host_s: float
    #: Observed runs: attach, run and report.
    run_host_s: float
    setup_f: float
    run_f: float
    result: SimResult
    #: Per-layer totals when traced, else None.
    trace: CellTrace | None = None

    @property
    def setup_s(self) -> float:
        return (self.inputs_host_s + self.machine_host_s) * self.setup_f

    @property
    def run_s(self) -> float:
        return self.run_host_s * self.run_f


def _assemble(app, system: str) -> Machine:
    machine = Machine(CONFIG, system)
    app.setup(machine)
    return machine


def execute(
    cell: Cell,
    norm: Normaliser,
    expected: str | None,
    observe: bool = False,
    probe=None,
) -> Sample:
    """Run ``cell`` once between kernel marks and check its outcome.

    Raises on any failure: the run raising, ``app.verify()``, an outcome
    digest other than ``expected``, or (observed) a nonzero attribution
    residual against the ``SimResult`` totals.  An observed run's
    outcome equals its plain twin's exactly when both equal ``expected``.
    """
    probe = probe if probe is not None else NullProbe()
    gc.collect()
    probe.begin_cell(cell.name + ("+obs" if observe else ""))
    k0 = norm.mark()
    t0 = perf_counter()
    app = probe.call("workloads", cell.factory)
    t1 = perf_counter()
    machine = probe.call("runtime.machine", _assemble, app, cell.system)
    t2 = perf_counter()
    k1 = norm.mark()
    probe.instrument(machine)
    t3 = perf_counter()
    if observe:
        TracingMemory.attach(machine)
        MetricsCollector.attach(machine)
        collector = AttributionCollector.attach(machine)
        probe.instrument_observers(machine)
    result = machine.run(probe.worker(app.worker))
    report = build_report(collector, result, app=cell.app, system=cell.system) if observe else None
    t4 = perf_counter()
    k2 = norm.mark()
    trace = probe.end_cell()

    app.verify()
    got = digest(capture_outcome(machine, result))
    if got != expected:
        raise CellFailure(f"{cell.ident}: outcome digest {got[:12]} != expected {str(expected)[:12]}")
    if report is not None:
        residual = {cat: report["residual"][cat] for cat in OVERHEAD_CATEGORIES}
        if any(v != 0.0 for v in residual.values()):
            raise CellFailure(f"{cell.ident}: attribution residual {residual}")
    return Sample(
        inputs_host_s=t1 - t0,
        machine_host_s=t2 - t1,
        run_host_s=t4 - t3,
        setup_f=norm.factor(k0, k1),
        run_f=norm.factor(k1, k2),
        result=result,
        trace=trace,
    )


def write_expected(seed: int = 0) -> None:
    """Regenerate :data:`EXPECTED_FILE` from the reference engine."""
    digests = {}
    for workload in WORKLOADS:
        for cell in build_cells(workload, seed, EXPECTED_SCALE):
            if cell.ident not in digests:
                digests[cell.ident] = reference_digest(cell)
    doc = {"scale": EXPECTED_SCALE, "nprocs": NPROCS, "seed": seed,
           "digests": dict(sorted(digests.items()))}
    EXPECTED_FILE.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    write_expected()
