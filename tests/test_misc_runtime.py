"""Remaining runtime/application surface: helpers, error paths, internals."""

import pytest

from repro.apps import Maxflow
from repro.apps.base import Application, run_machine, run_on
from repro.config import MachineConfig
from repro.runtime import Machine
from repro.runtime.primitives import compute, fence
from repro.sim.events import Compute, Fence


class _Tiny(Application):
    """One compute op per processor; records its setup/verify calls."""

    name = "tiny"

    def __init__(self):
        self.calls = []

    def setup(self, machine):
        self.calls.append("setup")

    def worker(self, ctx):
        yield Compute(1)

    def verify(self):
        self.calls.append("verify")


class TestPrimitiveHelpers:
    def test_compute_helper(self):
        gen = compute(25.0)
        op = next(gen)
        assert isinstance(op, Compute)
        assert op.cycles == 25.0

    def test_fence_helper(self):
        op = next(fence())
        assert isinstance(op, Fence)


class TestApplicationBase:
    def test_abstract_methods(self):
        app = Application()
        with pytest.raises(NotImplementedError):
            app.setup(None)
        with pytest.raises(NotImplementedError):
            app.worker(None)
        with pytest.raises(NotImplementedError):
            app.verify()

    def test_run_on_skips_verification_when_asked(self):
        class Broken(Application):
            name = "broken"

            def setup(self, machine):
                pass

            def worker(self, ctx):
                yield Compute(1)

            def verify(self):
                raise AssertionError("always fails")

        cfg = MachineConfig(nprocs=2)
        run_on(Broken(), "RCinv", cfg, verify=False)  # must not raise
        with pytest.raises(AssertionError):
            run_on(Broken(), "RCinv", cfg, verify=True)

    def test_run_machine_returns_machine(self):
        machine, result = run_machine(_Tiny(), "RCupd", MachineConfig(nprocs=2))
        assert machine.system_name == "RCupd"
        assert result.total_time > 0

    def test_run_machine_returns_hook_products_in_order(self):
        app = _Tiny()

        def hook(tag):
            def attach(machine):
                # after setup, before the run spawns any thread
                app.calls.append((tag, machine.engine.queue_depth()))
                return tag
            return attach

        machine, result, *products = run_machine(
            app, "RCinv", MachineConfig(nprocs=2), attach=(hook("a"), hook("b"))
        )
        assert products == ["a", "b"]
        assert app.calls == ["setup", ("a", 0), ("b", 0), "verify"]
        assert result.total_time > 0

    def test_machine_runs_once(self):
        machine = Machine(MachineConfig(nprocs=1), "RCinv")

        def worker(ctx):
            yield Compute(1)

        machine.run(worker)
        with pytest.raises(RuntimeError):
            machine.run(worker)


class TestMaxflowInternals:
    def test_load_balancing_pushes_to_global_queue(self, monkeypatch):
        import repro.apps.maxflow as mf

        monkeypatch.setattr(mf, "_LOCAL_HIGH", 1)
        app = Maxflow(n=16, extra_edges=30, seed=2)
        machine, _ = run_machine(app, "RCinv", MachineConfig(nprocs=2))
        # with a 1-entry local queue, overflow work must have flowed
        # through the global queue
        assert app.global_q.tail.value() > 0

    def test_initial_preflow_saturates_source(self):
        app = Maxflow(n=10, extra_edges=10, seed=3)
        machine = Machine(MachineConfig(nprocs=2), "RCinv")
        app.setup(machine)
        net = app.net
        for e in net.adj[net.source]:
            e = int(e)
            if net.cap[e] > 0:
                assert app.flow.peek(e) == net.cap[e]

    def test_height_initialised_to_n_at_source(self):
        app = Maxflow(n=10, extra_edges=10, seed=3)
        machine = Machine(MachineConfig(nprocs=2), "RCinv")
        app.setup(machine)
        assert app.height.peek(app.net.source) == app.net.n


class TestWakeErrorPath:
    def test_wake_non_blocked_thread_rejected(self):
        machine = Machine(MachineConfig(nprocs=2), "RCinv")

        def worker(ctx):
            yield Compute(1)

        machine.engine.spawn(0, worker(None))
        with pytest.raises(RuntimeError):
            machine.engine.wake(0, 10.0)
