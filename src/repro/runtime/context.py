"""Per-thread application context and machine assembly.

:class:`Machine` wires a configuration, a memory system, a network, a
synchronisation manager and the engine together; :class:`AppContext` is
what each SPMD worker receives.
"""

from __future__ import annotations

from collections.abc import Callable, Generator

from ..config import MachineConfig
from ..mem.systems import make_system
from ..network.base import Network
from ..sim.engine import Engine
from ..sim.events import Compute, Op, Phase
from ..sim.stats import SimResult
from .sharedmem import SharedMemory
from .sync import SyncManager


class AppContext:
    """Handed to every worker: identity plus runtime handles."""

    __slots__ = ("pid", "nprocs", "config", "shm", "sync")

    def __init__(self, pid: int, config: MachineConfig, shm: SharedMemory, sync: SyncManager):
        self.pid = pid
        self.nprocs = config.nprocs
        self.config = config
        self.shm = shm
        self.sync = sync

    def compute(self, cycles: float) -> Generator[Op, None, None]:
        """Charge ``cycles`` of local computation."""
        yield Compute(cycles)

    def phase(self, label: str) -> Generator[Op, None, None]:
        """Mark a named application phase (zero simulated cost).

        Purely observability: tracers and metrics collectors attribute
        subsequent events to the phase; timing is unaffected.
        """
        yield Phase(label)


class Machine:
    """One simulated machine instance: config + memory system + runtime.

    Built and run through :func:`repro.apps.base.run_machine`, which
    calls ``app.setup(machine)`` (allocates shared state), then any
    observer ``attach`` hooks, then :meth:`run` (SPMD execution)::

        machine, result, tracer = run_machine(
            app, "RCinv", config, attach=(TracingMemory.attach,)
        )
    """

    def __init__(
        self,
        config: MachineConfig,
        system: str = "RCinv",
        network: Network | None = None,
        max_ops: int | None = None,
    ):
        self.config = config
        self.memsys = make_system(system, config, network)
        # Sync traffic shares the data network so protocol traffic delays
        # synchronisation (and vice versa); the z-machine's ideal network
        # keeps synchronisation contention-free there.
        self.network: Network = self.memsys.network
        self.sync = SyncManager(config, self.network)
        self.shm = SharedMemory(config)
        self.engine = Engine(config, self.memsys, self.sync, max_ops=max_ops)
        #: The event-log views attached to this machine (the tracer,
        #: metrics, attribution): their log holds them only weakly.
        self.views: list = []
        self._ran = False

    @property
    def system_name(self) -> str:
        return self.memsys.name

    def run(self, worker: Callable[[AppContext], Generator[Op, None, None]]) -> SimResult:
        """Run ``worker(ctx)`` on every processor to completion."""
        if self._ran:
            raise RuntimeError("a Machine instance can only run once")
        self._ran = True
        for pid in range(self.config.nprocs):
            ctx = AppContext(pid, self.config, self.shm, self.sync)
            self.engine.spawn(pid, worker(ctx))
        result = self.engine.run()
        stats = self.network.stats
        result.network_messages = stats.messages
        result.network_bytes = stats.bytes
        result.network_busy_cycles = stats.busy_cycles
        return result
