"""The observability subsystem: metrics, timeline export, manifests.

Covers the guarantees docs/observability.md documents: interval
metrics reproduce the SimResult stall decomposition exactly, bucket
splitting preserves totals across boundaries, the Perfetto export is
valid Chrome-trace JSON with monotonic timestamps, manifests round-trip
through disk, and tracing stays cheap enough to leave on.
"""

from __future__ import annotations

import json
import time
from types import SimpleNamespace

from repro import MachineConfig
from repro.apps import AppFactory
from repro.apps.base import run_machine
from repro.obs import (
    MetricsCollector,
    build_manifest,
    read_manifest,
    to_perfetto,
    write_manifest,
    write_trace,
)
from repro.obs.log import Logger
from repro.obs.metrics import CATEGORIES, Counter, Gauge, Histogram
from repro.runtime.context import Machine
from repro.sim.observer import FanOut, Observer, subscribe
from repro.sim.trace import TracingMemory

CFG = MachineConfig(nprocs=4)

IS_FACTORY = AppFactory("IS", n_keys=128, nbuckets=16)
CHOLESKY_FACTORY = AppFactory("Cholesky", grid=(6, 6))


def run_observed(factory, system, cfg=CFG, interval=500.0, trace=True):
    """Run one app with tracer + collector attached; return all pieces."""
    app = factory()
    machine = Machine(cfg, system)
    app.setup(machine)
    tracer = TracingMemory.attach(machine) if trace else None
    collector = MetricsCollector.attach(machine, interval=interval)
    result = machine.run(app.worker)
    return machine, result, tracer, collector


# ---------------------------------------------------------------------------
# metric primitives


def test_counter_gauge_histogram():
    c = Counter("n")
    c.inc()
    c.inc(3)
    assert c.value == 4
    g = Gauge("depth")
    g.set(2.0)
    g.set(7.0)
    g.set(1.0)
    assert g.value == 1.0 and g.peak == 7.0
    h = Histogram("lat", bounds=(1.0, 10.0))
    for v in (0.5, 5.0, 50.0):
        h.observe(v)
    assert h.count == 3
    assert h.counts == [1, 1, 1]
    assert h.mean == (0.5 + 5.0 + 50.0) / 3
    d = h.to_dict()
    assert d["count"] == 3 and len(d["counts"]) == len(d["bounds"]) + 1


# ---------------------------------------------------------------------------
# bucket splitting


def test_deposit_splits_across_bucket_boundary_exactly():
    mc = MetricsCollector(nprocs=1, interval=100.0)
    # A 50-cycle busy span straddling the t=100 boundary: 30 cycles in
    # bucket 0, 20 in bucket 1, preserving the total bit-for-bit.
    mc._deposit(0, 70.0, 50.0, busy=50.0)
    b0, b1 = mc._bucket(0), mc._bucket(1)
    assert abs(b0["busy"][0] - 30.0) < 1e-12
    assert abs(b1["busy"][0] - 20.0) < 1e-12
    assert b0["busy"][0] + b1["busy"][0] == 50.0


def test_deposit_span_ending_on_boundary_stays_in_lower_bucket():
    mc = MetricsCollector(nprocs=1, interval=100.0)
    mc._deposit(0, 50.0, 50.0, busy=50.0)  # [50, 100) ends exactly at the edge
    assert mc._bucket(0)["busy"][0] == 50.0
    assert 1 not in mc._buckets


def test_deposit_many_buckets_total_preserved():
    mc = MetricsCollector(nprocs=2, interval=10.0)
    amount = 123.456789
    mc._deposit(1, 3.25, 97.5, sync_wait=amount)
    total = sum(b["sync_wait"][1] for b in mc._buckets.values())
    assert total == amount  # exact, not approximate: remainder goes last


# ---------------------------------------------------------------------------
# end-to-end: metrics reproduce the simulator's own accounting


def test_metrics_totals_match_simresult_exactly():
    # The acceptance scenario: cholesky on RCadapt, summed per-bucket
    # decomposition vs the SimResult per-processor totals.
    _, result, _, collector = run_observed(CHOLESKY_FACTORY, "RCadapt")
    totals = collector.totals()
    want = {
        "busy": sum(p.busy for p in result.procs),
        "read_stall": sum(p.read_stall for p in result.procs),
        "write_stall": sum(p.write_stall for p in result.procs),
        "buffer_flush": sum(p.buffer_flush for p in result.procs),
        "sync_wait": sum(p.sync_wait for p in result.procs),
    }
    for cat in CATEGORIES:
        assert abs(totals[cat] - want[cat]) < 1e-6, (cat, totals[cat], want[cat])


def test_metrics_per_proc_totals_match_procstats():
    _, result, _, collector = run_observed(IS_FACTORY, "RCinv")
    per = collector.per_proc_totals()
    for p, stats in enumerate(result.procs):
        assert abs(per["busy"][p] - stats.busy) < 1e-6
        assert abs(per["sync_wait"][p] - stats.sync_wait) < 1e-6


def test_metrics_per_proc_totals_match_at_p64():
    """Paper-scale machine: every one of the 64 per-processor bucket
    sums must reproduce the SimResult decomposition to 1e-6."""
    factory = AppFactory("IS", n_keys=512, nbuckets=64)
    _, result, _, collector = run_observed(
        factory, "RCupd", cfg=MachineConfig(nprocs=64), trace=False
    )
    assert len(result.procs) == 64
    per = collector.per_proc_totals()
    for p, stats in enumerate(result.procs):
        for cat in CATEGORIES:
            assert abs(per[cat][p] - getattr(stats, cat)) < 1e-6, (cat, p)
    totals = collector.totals()
    for cat in CATEGORIES:
        want = sum(getattr(p, cat) for p in result.procs)
        assert abs(totals[cat] - want) < 1e-6, cat


def test_metrics_observability_is_timing_transparent():
    plain = run_machine(IS_FACTORY(), "RCinv", CFG)[1]
    _, observed, _, _ = run_observed(IS_FACTORY, "RCinv")
    assert observed.total_time == plain.total_time
    assert observed.ops == plain.ops


def test_metrics_to_dict_schema():
    _, result, _, collector = run_observed(IS_FACTORY, "RCinv")
    doc = collector.to_dict()
    assert doc["schema"] == MetricsCollector.SCHEMA
    assert doc["categories"] == list(CATEGORIES)
    assert doc["nprocs"] == CFG.nprocs
    assert doc["buckets"], "expected at least one bucket"
    for bucket in doc["buckets"]:
        assert bucket["t1"] - bucket["t0"] == collector.interval
        for cat in CATEGORIES:
            assert len(bucket[cat]) == CFG.nprocs
    json.dumps(doc)  # must be JSON-serialisable as-is


# ---------------------------------------------------------------------------
# Perfetto timeline export


def golden_trace(tmp_path):
    machine, result, tracer, _ = run_observed(IS_FACTORY, "RCinv")
    doc = to_perfetto(
        tracer, CFG.nprocs, total_time=result.total_time, app="IS", system="RCinv"
    )
    path = tmp_path / "trace.json"
    write_trace(path, doc)
    return doc, path


def test_fan_out_forwards_only_overridden_callbacks():
    """One subscriber is the observer itself; a second one turns it into
    a fan-out that calls each subscriber that overrides a callback."""

    class Phases(Observer):
        def __init__(self):
            self.seen = []

        def on_phase(self, proc, time, label):
            self.seen.append(label)

    engine = SimpleNamespace(observer=None)
    first, second = Phases(), Phases()
    assert subscribe(engine, first) is first
    assert engine.observer is first
    subscribe(engine, second)
    fan = engine.observer
    assert isinstance(fan, FanOut) and fan.subscribers == [first, second]
    fan.on_phase(0, 1.0, "work")
    assert first.seen == second.seen == ["work"]
    # Nobody overrides on_busy: the fan-out keeps the inherited no-op.
    assert "on_busy" not in vars(fan) and "on_phase" in vars(fan)


def test_perfetto_document_shape(tmp_path):
    doc, path = golden_trace(tmp_path)
    loaded = json.loads(path.read_text())
    assert loaded["displayTimeUnit"] == "ms"
    events = loaded["traceEvents"]
    phs = {e["ph"] for e in events}
    assert {"M", "X"} <= phs, "metadata and slices required"
    # One named lane per processor.
    names = [e for e in events if e["ph"] == "M" and e["name"] == "thread_name"]
    lanes = {e["args"]["name"] for e in names}
    assert {f"proc {p}" for p in range(CFG.nprocs)} <= lanes


def test_perfetto_timestamps_monotonic(tmp_path):
    doc, _ = golden_trace(tmp_path)
    body = [e for e in doc["traceEvents"] if e["ph"] != "M"]
    ts = [e["ts"] for e in body]
    assert ts == sorted(ts)
    assert all(t >= 0 for t in ts)


def test_perfetto_includes_phase_markers_and_barrier_flows(tmp_path):
    doc, _ = golden_trace(tmp_path)
    body = doc["traceEvents"]
    phase_slices = [
        e for e in body if e["ph"] == "X" and e.get("tid", 0) >= 1000
    ]
    assert phase_slices, "IS phase() markers should become phase-lane slices"
    names = {e["name"] for e in phase_slices}
    assert {"histogram", "rank"} <= names
    flows = [e for e in body if e["ph"] in ("s", "t", "f")]
    assert flows, "barrier episodes should produce flow events"
    finishes = [e for e in flows if e["ph"] == "f"]
    assert all(e.get("bp") == "e" for e in finishes)


def test_perfetto_accepts_plain_event_list():
    _, result, tracer, _ = run_observed(IS_FACTORY, "RCinv")
    from_list = to_perfetto(list(tracer.events), CFG.nprocs, total_time=result.total_time)
    from_tracer = to_perfetto(tracer, CFG.nprocs, total_time=result.total_time)
    assert len(from_list["traceEvents"]) == len(from_tracer["traceEvents"])


# ---------------------------------------------------------------------------
# manifests


def test_manifest_roundtrip(tmp_path):
    manifest = build_manifest(
        "study",
        config=CFG,
        app="IS",
        systems=["z-mc", "RCinv"],
        wall_seconds=1.25,
        extra={"note": "unit"},
    )
    path = tmp_path / "manifest.json"
    write_manifest(path, manifest)
    loaded = read_manifest(path)
    assert loaded == json.loads(json.dumps(manifest))  # JSON-stable
    assert loaded["kind"] == "study"
    assert loaded["config"]["nprocs"] == CFG.nprocs
    assert loaded["code_fingerprint"] and loaded["host"]["python"]
    assert loaded["note"] == "unit"


def test_study_attaches_manifest():
    from repro import run_study

    study = run_study(IS_FACTORY, CFG, systems=("z-mc", "RCinv"))
    m = study.manifest
    assert m["kind"] == "study" and m["app"] == "IS"
    assert [j["system"] for j in m["jobs"]] == ["z-mc", "RCinv"]
    assert m["events"] == sum(j["events"] for j in m["jobs"]) > 0
    assert m["cache"] == {"hits": 0, "misses": 2, "hit_rate": 0.0}


# ---------------------------------------------------------------------------
# logger


def test_logger_modes(capsys):
    log = Logger()
    log.out("payload")
    log.info("diag")
    cap = capsys.readouterr()
    assert cap.out == "payload\n" and "diag" in cap.err

    log = Logger(quiet=True)
    log.info("hidden")
    log.warn("kept")
    cap = capsys.readouterr()
    assert "hidden" not in cap.err and "warn: kept" in cap.err

    log = Logger(json_mode=True)
    log.out("table", rows=2)
    cap = capsys.readouterr()
    rec = json.loads(cap.out)
    assert rec == {"level": "out", "msg": "table", "rows": 2}


def test_logger_debug_requires_verbose(capsys):
    Logger().debug("no")
    Logger(verbose=True).debug("yes")
    cap = capsys.readouterr()
    assert "no" not in cap.err and "yes" in cap.err


# ---------------------------------------------------------------------------
# overhead guard


def test_tracing_overhead_bounded():
    # Observability must stay cheap enough to leave on: best-of-N traced
    # wall-clock within 1.3x of untraced (generous for CI noise).
    def best(trace):
        walls = []
        for _ in range(3):
            app = IS_FACTORY()
            machine = Machine(CFG, "RCinv")
            app.setup(machine)
            if trace:
                TracingMemory.attach(machine)
            t0 = time.perf_counter()
            machine.run(app.worker)
            walls.append(time.perf_counter() - t0)
        return min(walls)

    base = best(False)
    traced = best(True)
    assert traced <= base * 1.3 + 0.05, f"tracing overhead {traced / base:.2f}x"
