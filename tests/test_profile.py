"""Self-profiler tests: bit-identity, stack classification, signal hygiene.

The profiler's contract is threefold: with the stack sampler armed the
*results are bit-identical* to an unprofiled run (sampling only reads
frames); each sampled stack is charged to the component of its
innermost mapped frame, which is pinned here deterministically on real
code objects and synthetic frame chains rather than on timings; and the
timer and signal handler are restored however the armed block exits.
"""

from __future__ import annotations

import inspect
import json
import signal
from types import SimpleNamespace

import pytest

from repro import MachineConfig
from repro.analysis.checkers.invariants import InvariantChecker
from repro.analysis.checkers.races import RaceDetector
from repro.apps.intsort import IntegerSort
from repro.mem.cache import Cache
from repro.mem.systems.rcinv import RCInv
from repro.network.routed import RoutedNetwork
from repro.obs.attrib import AttributionCollector
from repro.obs.metrics import MetricsCollector
from repro.obs.profile import (
    COMPONENTS,
    HostProfiler,
    _SIGNAL,
    _TIMER,
    inlined_wheel_lines,
)
from repro.runtime.context import Machine
from repro.runtime.sharedmem import SharedMemory
from repro.runtime.sync import SyncManager
from repro.sim.engine import DeadlockError, Engine
from repro.sim.events import Acquire
from repro.sim.observer import FanOut
from repro.sim.stats import AccessResult
from repro.sim.trace import EventLog, TracingMemory
from repro.sim.wheel import EventWheel

from .golden import PROC_FIELDS, run_case

#: (app preset, system) cases for the bit-identity matrix: one cheap
#: app on three very different systems plus a sync-heavy app.
CASES = [
    ("IS", "z-mc"),
    ("IS", "RCinv"),
    ("Cholesky", "SCinv"),
    ("Nbody", "RCupd"),
]


def _run(
    name: str,
    system: str,
    profiled: bool,
    tracer: bool = False,
    metrics: bool = False,
    scale: str = "smoke",
):
    from repro.apps import preset

    factory = preset(scale)[name][0]
    app = factory()
    machine = Machine(MachineConfig(nprocs=16), system)
    app.setup(machine)
    if tracer:
        TracingMemory.attach(machine, max_events=100_000)
    if metrics:
        MetricsCollector.attach(machine, interval=1000.0)
    if not profiled:
        return machine.run(app.worker), machine, None
    with HostProfiler() as prof:
        result = machine.run(app.worker)
    return result, machine, prof


def _fingerprint(result, machine) -> dict:
    doc = {
        "total_time": result.total_time,
        "ops": result.ops,
        "network_messages": machine.network.stats.messages,
        "network_bytes": machine.network.stats.bytes,
    }
    for field in PROC_FIELDS:
        doc[field] = [getattr(p, field) for p in result.procs]
    return doc


_RUN = Engine.run


def _line_of(func, text: str) -> int:
    """Absolute line number of the first source line of ``func`` containing ``text``."""
    lines, first = inspect.getsourcelines(func)
    for offset, line in enumerate(lines):
        if text in line:
            return first + offset
    raise AssertionError(f"{text!r} not in {func.__qualname__}")


def _chain(*funcs, run_line: str = "cls = op.__class__"):
    """Synthetic frame chain, outermost first; the innermost is returned.

    ``Engine.run`` frames sit on ``run_line`` (a plain dispatch line by
    default); other frames sit on their first line.
    """
    frame = None
    for func in funcs:
        code = func.__code__
        line = _line_of(func, run_line) if func is _RUN else code.co_firstlineno
        frame = SimpleNamespace(f_code=code, f_lineno=line, f_back=frame)
    return frame


# -- bit-identity with the sampler armed ------------------------------------
@pytest.mark.parametrize("name,system", CASES)
def test_profiled_run_bit_identical(name, system):
    plain, m_plain, _ = _run(name, system, profiled=False)
    prof_res, m_prof, prof = _run(name, system, profiled=True)
    assert _fingerprint(plain, m_plain) == _fingerprint(prof_res, m_prof)
    assert prof.wall_ns > 0


def test_profiled_run_bit_identical_under_tracer():
    """Profiling composes with the tracer without changing results."""
    plain, m_plain, _ = _run("IS", "RCinv", profiled=False, tracer=True)
    prof_res, m_prof, _ = _run("IS", "RCinv", profiled=True, tracer=True)
    assert _fingerprint(plain, m_plain) == _fingerprint(prof_res, m_prof)


def test_golden_results_match_unprofiled():
    """Spot-check three goldens: profiled == recorded unprofiled run."""
    from repro.apps import preset

    for name, system in (("IS", "z-mc"), ("IS", "RCinv"), ("Cholesky", "SCinv")):
        expected = run_case(preset("smoke")[name][0], system, verify=False)
        res, _, _ = _run(name, system, profiled=True)
        assert res.total_time == expected["total_time"]
        assert res.ops == expected["ops"]


@pytest.mark.parametrize("name,system", [("Maxflow", "RCinv")])
def test_signal_delivery_never_perturbs_sync_heavy_run(name, system):
    """A lock- and barrier-heavy run long enough to take samples gives
    the same SimResult as an unarmed run."""
    plain, m_plain, _ = _run(name, system, profiled=False, scale="default")
    prof_res, m_prof, prof = _run(name, system, profiled=True, scale="default")
    assert _fingerprint(plain, m_plain) == _fingerprint(prof_res, m_prof)
    assert prof.samples > 0, "the armed run must actually take samples"


def test_metrics_collector_composes():
    """Armed over a MetricsCollector, results stay bit-identical, and
    the event log's callbacks, the metrics fold and its helpers and
    its reporting are observer time."""
    plain, m_plain, _ = _run("IS", "RCinv", profiled=False, metrics=True)
    prof_res, m_prof, _ = _run("IS", "RCinv", profiled=True, metrics=True)
    assert _fingerprint(plain, m_plain) == _fingerprint(prof_res, m_prof)
    prof = HostProfiler()
    assert prof.classify(_chain(_RUN, EventLog.on_access)) == "observer"
    chain = _chain(
        _RUN, EventLog.on_access, EventLog.flush, MetricsCollector._fold,
        MetricsCollector._spread,
    )
    assert prof.classify(chain) == "observer"
    assert prof.classify(_chain(_RUN, MetricsCollector.to_dict)) == "observer"


# -- stack classification -----------------------------------------------------
@pytest.mark.parametrize(
    "funcs,component",
    [
        ((_RUN, EventWheel.pop_and_peek), "wheel"),
        ((_RUN, IntegerSort.worker), "app"),
        ((_RUN, IntegerSort.worker, SharedMemory.array), "app"),
        ((_RUN, RCInv.read), "mem"),
        ((_RUN, RCInv.read, RoutedNetwork.transfer), "network"),
        ((_RUN, SyncManager.release), "sync"),
        # A wake belongs to the sync manager that issued it, its
        # re-queue to the wheel: other Engine methods pass through.
        ((_RUN, SyncManager.release, Engine.wake), "sync"),
        ((_RUN, SyncManager.release, Engine.wake, Engine._push), "sync"),
        ((_RUN, SyncManager.release, Engine.wake, Engine._push, EventWheel.push), "wheel"),
        # Explicit ids: the qualname chains of the checker cases are too
        # long to tell them apart in a truncated test listing.
        pytest.param(
            (_RUN, InvariantChecker.on_access), "observer",
            id="Engine.run/Checker.on_access-observer",
        ),
        pytest.param(
            (_RUN, InvariantChecker.on_access, InvariantChecker.full_check), "observer",
            id="Engine.run/Checker.full_check-observer",
        ),
        # The checker reading protocol state is memory-system time.
        pytest.param(
            (_RUN, InvariantChecker.on_access, InvariantChecker._check_block, Cache.peek),
            "mem",
            id="Engine.run/Checker.on_access/Cache.peek-mem",
        ),
        # The shared-memory address map is unmapped: its caller's time.
        pytest.param(
            (_RUN, RaceDetector.on_access, RaceDetector._on_data, SharedMemory.array_at),
            "observer",
            id="Engine.run/Races.on_access/array_at-observer",
        ),
        pytest.param(
            (_RUN, EventLog.on_access, EventLog.flush, TracingMemory._fold), "observer",
            id="Engine.run/EventLog.on_access/TracingMemory._fold-observer",
        ),
        ((_RUN, FanOut.add), "observer"),
        pytest.param(
            (_RUN, EventLog.on_stall, EventLog.flush, AttributionCollector._fold), "observer",
            id="Engine.run/EventLog.on_stall/AttributionCollector._fold-observer",
        ),
        ((_RUN, RCInv.read, AccessResult.__init__), "mem"),
        ((_RUN, AccessResult.__init__), "dispatch"),
        ((_RUN, RCInv.read, HostProfiler._on_sample), "mem"),
        ((_RUN,), "dispatch"),
        ((IntegerSort.worker,), "setup"),
        ((Machine.__init__, RCInv.__init__), "setup"),
    ],
    ids=lambda v: v if isinstance(v, str) else "/".join(f.__qualname__ for f in v),
)
def test_innermost_mapped_module_wins(funcs, component):
    assert HostProfiler().classify(_chain(*funcs)) == component


def test_inlined_wheel_line_is_wheel():
    wheel_lines = inlined_wheel_lines()
    prof = HostProfiler()
    for run_line in ("t = times.pop(0)", "tid = tids.pop(0)",
                     "times.append(t)", "tids.append(tid)",
                     "= bisect_right(times, t)", "tids.insert("):
        assert _line_of(_RUN, run_line) in wheel_lines
        assert prof.classify(_chain(_RUN, run_line=run_line)) == "wheel"
    for run_line in ("op = send(fb)", "cls = op.__class__", "if t > hz:"):
        assert _line_of(_RUN, run_line) not in wheel_lines
        assert prof.classify(_chain(_RUN, run_line=run_line)) == "dispatch"


def test_inlined_sync_charge_is_dispatch():
    """Sync ops' stall decomposition is written out in Engine.run: dispatch."""
    prof = HostProfiler()
    for run_line in ("res = memsys.acquire(tid, now) if cls is Acquire", "stats.acquires += 1"):
        assert _line_of(_RUN, run_line) not in inlined_wheel_lines()
        assert prof.classify(_chain(_RUN, run_line=run_line)) == "dispatch"


def test_no_engine_run_frame_is_setup():
    prof = HostProfiler()
    assert prof.classify(inspect.currentframe()) == "setup"
    assert prof.classify(None) == "setup"


# -- signal hygiene -----------------------------------------------------------
@pytest.fixture
def sentinel_handler():
    """Install a recognisable previous handler; restore the real one after."""
    calls = []

    def handler(signum, frame):
        calls.append(signum)

    original = signal.signal(_SIGNAL, handler)
    yield handler
    signal.signal(_SIGNAL, original)


def test_timer_and_handler_restored_after_normal_exit(sentinel_handler):
    with HostProfiler() as prof:
        assert signal.getsignal(_SIGNAL) == prof._on_sample
        assert signal.getitimer(_TIMER) != (0.0, 0.0)
    assert signal.getitimer(_TIMER) == (0.0, 0.0)
    assert signal.getsignal(_SIGNAL) is sentinel_handler


def test_timer_and_handler_restored_after_deadlock(sentinel_handler):
    machine = Machine(MachineConfig(nprocs=2), "RCinv")
    lock = machine.sync.new_lock("jam")

    def worker(ctx):
        # Non-reentrant lock acquired twice: blocks forever.
        yield Acquire(lock)
        yield Acquire(lock)

    with pytest.raises(DeadlockError):
        with HostProfiler():
            machine.run(worker)
    assert signal.getitimer(_TIMER) == (0.0, 0.0)
    assert signal.getsignal(_SIGNAL) is sentinel_handler


def test_disabled_profiler_is_default():
    """Nothing is armed until the profiler is entered; the engine has
    no profiler hook at all."""
    machine = Machine(MachineConfig(nprocs=16), "RCinv")
    HostProfiler()
    assert not hasattr(machine.engine, "profiler")
    assert signal.getitimer(_TIMER) == (0.0, 0.0)


# -- reporting ----------------------------------------------------------------
def _synthetic() -> HostProfiler:
    prof = HostProfiler()
    prof.counts.update(setup=10, wheel=20, app=30, mem=25, network=10, dispatch=5)
    prof.wall_ns = 200_000_000
    return prof


def test_accounting_invariant():
    """Sample-scaled components are non-negative and sum to the wall
    time, short only by integer rounding."""
    prof = _synthetic()
    ns = prof.ns
    assert prof.samples == 100
    assert ns["app"] == 60_000_000
    assert all(ns[name] >= 0 for name in COMPONENTS)
    assert prof.wall_ns - len(COMPONENTS) <= sum(ns.values()) <= prof.wall_ns
    empty = HostProfiler()
    assert empty.samples == 0 and sum(empty.ns.values()) == 0


def test_to_dict_and_table():
    prof = _synthetic()
    doc = prof.to_dict()
    assert doc["schema"] == 2
    assert doc["profile"] == "host-component-attribution"
    assert doc["sampled"] is True
    assert doc["samples"] == 100
    assert list(doc["components"]) == list(COMPONENTS)
    assert doc["components"]["mem"] == {
        "ns": 50_000_000, "samples": 25, "pct": 25.0, "help": doc["components"]["mem"]["help"],
    }
    assert doc["wall_ns"] == prof.wall_ns
    json.dumps(doc)
    table = prof.table()
    for name in COMPONENTS:
        assert name in table
    assert "sampled" in table and "100 samples" in table


def test_to_perfetto_flame():
    doc = _synthetic().to_perfetto()
    events = doc["traceEvents"]
    root = [e for e in events if e.get("name") == "profile"]
    assert len(root) == 1
    slices = [e for e in events if e["ph"] == "X" and e["name"] != "profile"]
    assert [s["name"] for s in slices] == ["setup", "wheel", "app", "mem", "network", "dispatch"]
    # Children tile the root without overlap and fit inside it.
    cursor = 0.0
    for s in sorted(slices, key=lambda e: e["ts"]):
        assert s["ts"] == pytest.approx(cursor)
        cursor += s["dur"]
    assert cursor <= root[0]["dur"] * 1.001
    json.dumps(doc)  # must be serialisable
