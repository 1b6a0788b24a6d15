"""Unit + conformance tests for the plain-heapq reference engine.

:class:`repro.sim.reference.ReferenceEngine` is the differential oracle
``repro fuzz`` cross-checks the wheel engine against, so it carries the
same bit-identity contract the production engine does: it must replay
the golden fixture exactly, agree with the wheel engine on configs the
fixture does not cover (odd processor counts, degradation scenarios),
and expose the same scheduling surface (spawn validation, wake
accounting, op budget, deadlock detection).
"""

from __future__ import annotations

import json
from dataclasses import astuple

import pytest

from repro.apps.base import run_machine
from repro.apps.factory import AppFactory
from repro.apps.presets import preset
from repro.config import MachineConfig
from repro.runtime.context import Machine
from repro.scenarios import apply_scenario
from repro.sim.engine import DeadlockError
from repro.sim.events import Acquire, BarrierWait, Compute
from repro.sim.observer import Observer, subscribe
from repro.sim.reference import (
    ENGINES,
    PROC_FIELDS,
    ReferenceEngine,
    capture_outcome,
    run_case,
    use_reference_engine,
)
from repro.sim.trace import TracingMemory
from repro.sim.wheel import EventWheel
from tests.golden import FIXTURE, golden_cases

GOLDEN = json.loads(FIXTURE.read_text())
CASE_IDS = sorted(GOLDEN["runs"])


# ---------------------------------------------------------------------------
# golden conformance: the reference engine replays the fixture bit-for-bit


@pytest.fixture(scope="module")
def cases():
    return golden_cases()


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_reference_engine_bit_identical_to_fixture(case_id, cases):
    app_name, system = case_id.split("/")
    factory, verify = cases[app_name]
    expected = GOLDEN["runs"][case_id]
    actual = run_case(
        factory, system, verify, nprocs=GOLDEN["nprocs"], engine="reference"
    )
    assert actual["total_time"] == expected["total_time"], "total_time diverged"
    assert actual["ops"] == expected["ops"], "op count diverged"
    for proc, (got, want) in enumerate(zip(actual["procs"], expected["procs"])):
        for field in PROC_FIELDS:
            assert got[field] == want[field], (
                f"proc {proc} field {field}: {got[field]!r} != {want[field]!r}"
            )
    assert actual["network_messages"] == expected["network_messages"]
    assert actual["network_bytes"] == expected["network_bytes"]
    assert actual["traffic"] == expected["traffic"]
    assert actual["memory"] == expected["memory"], "shared-memory image diverged"


# ---------------------------------------------------------------------------
# wheel-vs-reference differential beyond the fixture's draw point


@pytest.mark.parametrize(
    "app,kwargs,system,nprocs,scenario",
    [
        ("IS", {"n_keys": 128, "nbuckets": 16}, "RCupd", 3, "bursty"),
        ("Maxflow", {"n": 12, "extra_edges": 18, "seed": 1}, "SCinv", 6, "hotspot"),
        ("Cholesky", {"grid": (4, 4)}, "RCadapt", 5, "slow_links"),
        ("RacyDemo", {}, "RCinv", 2, "heterogeneous"),
    ],
    ids=lambda v: str(v) if isinstance(v, (str, int)) else "",
)
def test_wheel_and_reference_agree_off_fixture(app, kwargs, system, nprocs, scenario):
    config = apply_scenario(scenario, MachineConfig(nprocs=nprocs))
    factory = AppFactory(app, **kwargs)
    verify = app != "RacyDemo"
    wheel = run_case(factory, system, verify, config=config, engine="wheel")
    ref = run_case(factory, system, verify, config=config, engine="reference")
    assert json.loads(json.dumps(wheel)) == json.loads(json.dumps(ref))


# ---------------------------------------------------------------------------
# scheduling surface


def _machine(nprocs=2, system="RCinv"):
    return Machine(MachineConfig(nprocs=nprocs), system)


def test_use_reference_engine_swaps_and_rebinds():
    machine = _machine()
    original = machine.engine
    ref = use_reference_engine(machine)
    assert machine.engine is ref
    assert isinstance(ref, ReferenceEngine)
    assert ref.memsys is original.memsys
    assert ref.syncmgr is original.syncmgr
    # the sync manager now wakes the reference engine, not the old one
    assert machine.sync._engine is ref


def _traced(*hooks):
    """IS on RCinv under ``hooks``: (outcome, traced rows)."""
    machine, result, *products = run_machine(
        AppFactory("IS", n_keys=128, nbuckets=16)(), "RCinv", MachineConfig(nprocs=4),
        attach=hooks,
    )
    (tracer,) = [p for p in products if isinstance(p, TracingMemory)]
    return (
        json.loads(json.dumps(capture_outcome(machine, result))),
        [astuple(event) for event in tracer.events],
    )


def test_reference_swap_keeps_observers_attached_before_it():
    """Hook order is harmless: a tracer attached before the engine swap
    records the same columns as one attached after it, and both runs
    match the wheel engine's."""
    before = _traced(TracingMemory.attach, use_reference_engine)
    after = _traced(use_reference_engine, TracingMemory.attach)
    wheel = _traced(TracingMemory.attach)
    assert before[1], "the tracer must record the run"
    assert before[1] == after[1] == wheel[1]
    assert before[0] == after[0] == wheel[0]
    plain = run_case(AppFactory("IS", n_keys=128, nbuckets=16), "RCinv", nprocs=4)
    assert wheel[0] == json.loads(json.dumps(plain))


def test_run_case_rejects_unknown_engine():
    with pytest.raises(ValueError, match="unknown engine"):
        run_case(AppFactory("RacyDemo"), "RCinv", False, engine="warp")
    assert set(ENGINES) == {"wheel", "reference"}


def test_spawn_validation():
    ref = use_reference_engine(_machine())

    def gen():
        yield Compute(1.0)

    ref.spawn(0, gen())
    with pytest.raises(ValueError, match="already spawned"):
        ref.spawn(0, gen())
    with pytest.raises(ValueError, match="outside processor range"):
        ref.spawn(7, gen())


def test_wake_requires_blocked_thread():
    ref = use_reference_engine(_machine())

    def gen():
        yield Compute(1.0)

    ref.spawn(0, gen())
    with pytest.raises(RuntimeError, match="non-blocked"):
        ref.wake(0, 5.0)


def test_deadlock_detection():
    machine = _machine(nprocs=2)
    use_reference_engine(machine)
    lock = machine.sync.new_lock("jam")

    def worker(ctx):
        # Non-reentrant lock acquired twice: blocks forever.
        yield Acquire(lock)
        yield Acquire(lock)

    with pytest.raises(DeadlockError, match="deadlocked"):
        machine.run(worker)


def test_op_budget_enforced():
    machine = Machine(MachineConfig(nprocs=1), "RCinv", max_ops=5)
    use_reference_engine(machine)

    def worker(ctx):
        while True:
            yield Compute(1.0)

    with pytest.raises(RuntimeError, match="operation budget exceeded"):
        machine.run(worker)


def test_feedback_is_thread_clock():
    machine = Machine(MachineConfig(nprocs=1), "RCinv")
    use_reference_engine(machine)
    seen = []

    def worker(ctx):
        t1 = yield Compute(10.0)
        seen.append(t1)
        t2 = yield Compute(2.5)
        seen.append(t2)

    machine.run(worker)
    assert seen == [10.0, 12.5]


def test_barrier_wake_accounts_sync_wait():
    machine = _machine(nprocs=2)
    use_reference_engine(machine)
    barrier = machine.sync.new_barrier()

    def worker(ctx):
        if ctx.pid == 0:
            yield Compute(100.0)
        yield BarrierWait(barrier)

    result = machine.run(worker)
    # proc 1 reached the barrier early and waited for proc 0
    assert result.procs[1].sync_wait > 0.0
    assert result.procs[0].barriers == 1
    assert result.procs[1].barriers == 1


class _Recorder(Observer):
    """Records every engine-observer callback with its arguments."""

    def __init__(self):
        self.calls = []

    def on_busy(self, *args):
        self.calls.append(("busy", *args))

    def on_access(self, proc, kind, target, issue, res, busy):
        self.calls.append((
            "access", proc, kind, target, issue, res.time,
            res.read_stall, res.write_stall, res.buffer_flush, res.hit, busy,
        ))

    def on_stall(self, *args):
        self.calls.append(("stall", *args))

    def on_sync_wait(self, *args):
        self.calls.append(("sync_wait", *args))

    def on_phase(self, *args):
        self.calls.append(("phase", *args))


def _is_run(engine: str):
    app = AppFactory("IS", n_keys=128, nbuckets=16)()
    machine = Machine(MachineConfig(nprocs=4), "RCinv")
    if engine == "reference":
        use_reference_engine(machine)
    app.setup(machine)
    return machine, app.worker, app.verify


def _scan_run(engine: str):
    from tests.test_multithread import scan_machine

    machine, worker, *_ = scan_machine(contexts_per_proc=2)
    if engine == "reference":
        use_reference_engine(machine)
    return machine, worker, lambda: None


def test_observer_neutrality_on_reference_engine():
    """Observers never perturb either engine, and both engines deliver
    the same callback stream: IS covers barriers and phase markers, the
    switch-on-miss scan covers ReadNB and Stall ops."""
    from repro.obs.attrib import AttributionCollector
    from repro.obs.metrics import MetricsCollector
    from repro.sim.reference import capture_outcome
    from repro.sim.trace import TracingMemory

    for build, must_see in ((_is_run, {"barrier", "phase"}), (_scan_run, {"read_nb", "stall"})):
        streams = {}
        for engine in ENGINES:
            outcomes = []
            for observed in (False, True):
                machine, worker, verify = build(engine)
                if observed:
                    TracingMemory.attach(machine)
                    MetricsCollector.attach(machine)
                    AttributionCollector.attach(machine)
                    recorder = subscribe(machine.engine, _Recorder())
                result = machine.run(worker)
                verify()
                outcomes.append(json.loads(json.dumps(capture_outcome(machine, result))))
            assert outcomes[0] == outcomes[1], f"{build.__name__} on {engine}"
            streams[engine] = recorder.calls
        assert streams["wheel"] == streams["reference"], build.__name__
        seen = {c[0] for c in streams["wheel"]}
        seen |= {c[2] for c in streams["wheel"] if c[0] == "access"}
        seen |= {c[3].kind for c in streams["wheel"] if c[0] == "access" and c[2] == "release"}
        assert must_see <= seen, build.__name__


@pytest.mark.parametrize("nprocs", [64, 256])
@pytest.mark.parametrize("app,system", [("IS", "z-mc"), ("Maxflow", "RCinv")])
def test_wheel_and_reference_agree_at_large_p(app, system, nprocs, monkeypatch):
    """Fuzz draws P <= 16; at large P the ready queue is long, so
    switches and wakes insert deep inside it."""
    slow = []
    push_slow = EventWheel._push_slow

    def counted(queue, time, tid):
        slow.append(time)
        push_slow(queue, time, tid)

    monkeypatch.setattr(EventWheel, "_push_slow", counted)
    factory, _ = preset("smoke")[app]
    wheel = run_case(factory, system, nprocs=nprocs, engine="wheel")
    ref = run_case(factory, system, nprocs=nprocs, engine="reference")
    assert json.loads(json.dumps(wheel)) == json.loads(json.dumps(ref))
    assert slow, "no push landed before the queue's tail"
