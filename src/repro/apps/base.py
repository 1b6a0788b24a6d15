"""Application interface.

An :class:`Application` owns its shared state for one simulation run:
``setup(machine)`` allocates shared arrays and synchronisation objects,
``worker(ctx)`` is the SPMD thread body, and ``verify()`` checks the
computed result against an independent reference — the execution-driven
simulator runs the *real* algorithm, so every run is checkable.
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Iterable

from ..config import MachineConfig
from ..runtime.context import AppContext, Machine
from ..sim.events import Op
from ..sim.stats import SimResult


class Application:
    """Base class for the paper's four applications."""

    #: Canonical name used in figures and tables.
    name = "app"

    def setup(self, machine: Machine) -> None:
        raise NotImplementedError

    def worker(self, ctx: AppContext) -> Generator[Op, None, None]:
        raise NotImplementedError

    def verify(self) -> None:
        """Raise AssertionError if the computed result is wrong."""
        raise NotImplementedError


def run_on(
    app: Application,
    system: str,
    config: MachineConfig,
    verify: bool = True,
    max_ops: int | None = None,
) -> SimResult:
    """:func:`run_machine` without the machine: returns the :class:`SimResult`."""
    return run_machine(app, system, config, verify=verify, max_ops=max_ops)[1]


def run_machine(
    app: Application,
    system: str,
    config: MachineConfig,
    verify: bool = True,
    max_ops: int | None = None,
    attach: Iterable[Callable[[Machine], object]] = (),
) -> tuple:
    """Run a fresh application instance on one memory system.

    ``app`` must be newly constructed (applications hold mutable shared
    state).  After ``app.setup(machine)`` each ``attach`` callable is
    called on the machine, in order, before the run: an observer's
    ``attach`` (``TracingMemory.attach``, ``partial(MetricsCollector.attach,
    interval=...)``, ...) or :func:`repro.sim.reference.use_reference_engine`.
    Returns ``(machine, result, *products)``, the products being what
    the ``attach`` callables returned, in order.
    """
    machine = Machine(config, system, max_ops=max_ops)
    app.setup(machine)
    products = [hook(machine) for hook in attach]
    result = machine.run(app.worker)
    if verify:
        app.verify()
    return (machine, result, *products)
