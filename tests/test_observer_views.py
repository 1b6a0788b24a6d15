"""The tracer, metrics and attribution outputs are pinned byte for byte.

Each cell runs with every observer stack below, and every output a view
produces is reduced to a SHA-256 digest that must match the committed
one, whatever else is attached and in whatever order:

* metrics: ``MetricsCollector.to_dict()``, at an interval short enough
  that access and busy spans cross bucket boundaries;
* attribution: the :func:`~repro.obs.attrib.build_report` document;
* tracer: ``summary()``, ``hottest_blocks()``, ``busiest_blocks()`` and
  the ``events`` rows, with ``max_events`` below the run's event count
  so the dropped-row tallies are covered too.

Re-record the digests after an intentional change to a view's output
with ``PYTHONPATH=src python -m tests.test_observer_views``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import weakref
from dataclasses import astuple
from functools import partial
from types import SimpleNamespace

import pytest

from repro.apps.base import run_machine
from repro.apps.presets import preset
from repro.config import MachineConfig
from repro.obs.attrib import AttributionCollector, build_report
from repro.obs.metrics import MetricsCollector
from repro.sim import trace
from repro.sim.stats import AccessResult, SyncPoint
from repro.sim.trace import EventLog, TracingMemory
from tests.oracles import attributed_totals

#: (app, system, scale, tracer max_events): each bound is below the
#: cell's event count.
CELLS = (
    ("Cholesky", "RCupd", "small", 1_000),
    ("Maxflow", "RCinv", "small", 20_000),
    ("IS", "z-mc", "smoke", 500),
)

#: Metrics interval (cycles): short enough that misses cross buckets,
#: whole so that some spans end exactly on a boundary.
INTERVAL = 50.0

#: The observer stacks each cell runs: all three views in two attach
#: orders, then each view alone.
STACKS = (
    ("tracer", "metrics", "attrib"),
    ("attrib", "metrics", "tracer"),
    ("tracer",),
    ("metrics",),
    ("attrib",),
)

#: cell ident -> view output -> SHA-256 of its JSON.
DIGESTS = {
    "Cholesky/RCupd": {
        "metrics": "e58eb5c89a708e11b64e9aaf5b85b9206389e155f10382ce8b745ba8180dba2a",
        "attrib": "d607b2e0194cd96ef173f8ea4901af0c55798dedba5d90d6ed5e0a01c38eeef6",
        "summary": "43dbc5d190749714c74f9c4150a5385dc99eb630fbd4b1ddd2e914329e02b347",
        "hottest": "66a7be5650a2a0f1360662b9eb935c5c26d26f4d90849c55cdd4b0bcbef39bac",
        "busiest": "31c65ee803092b2624c2138298305741d3a782bfc3b8ad7a5e479c8f593adcdc",
        "events": "b1fd89601398840a6d31b58200c3468934cce48581563b73f35754d4c707e4fb",
    },
    "Maxflow/RCinv": {
        "metrics": "9c27d0b4130ba7e743b2cf4d1c6c5bdfe180bf20458f086da8311c70be6751b8",
        "attrib": "1dc0bfe1cb09833781f9b888b91971030f7b78a7a92f388ea9a815e905e063ac",
        "summary": "be48ceb8d74b46f75a89c9230ebaaef3dcf84cd146657c1a8172357e486ef153",
        "hottest": "0996585940b7baf8c9b0340902e218709f112ac3c04da929eb215d1f09aa45a3",
        "busiest": "5bc5567fd54d2c3bf87cf5e0acc048e7978dbc9aa7bed2d526db3a38d63dc25c",
        "events": "0502b2b6c835ca595f06027dfe71b2f614dceab42dd9495d1dbd0f79add33a96",
    },
    "IS/z-mc": {
        "metrics": "7b02b5be9e6037b06d5ad16f9574008c58e932dfadb8e595921291c106c830cb",
        "attrib": "7016bf9eb2c4ba67c111925c4c9f50a2a740cca30c0035c5e685b647fb87bb68",
        "summary": "970ecaba6ddd3cb7a4ba33f6647734747650d88f58253ca1a8506f7489288ceb",
        "hottest": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "busiest": "fe622b0977954cb6981052b8851e71a65a7bd4a9445abea791c857b76e12ed90",
        "events": "b75c1bc382ca94aff2c077c3bae7742ed914efa890f6616bc1bf8803a5731c04",
    },
}


def _sha(doc) -> str:
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def run_stack(app: str, system: str, scale: str, max_events: int, stack) -> dict[str, str]:
    """Digest of every output of the views in ``stack`` for one run."""
    hooks = {
        "tracer": partial(TracingMemory.attach, max_events=max_events),
        "metrics": partial(MetricsCollector.attach, interval=INTERVAL),
        "attrib": AttributionCollector.attach,
    }
    machine, result, *views = run_machine(
        preset(scale)[app][0](), system, MachineConfig(), attach=[hooks[v] for v in stack]
    )
    out = {}
    for name, view in zip(stack, views):
        if name == "metrics":
            out["metrics"] = _sha(view.to_dict())
        elif name == "attrib":
            out["attrib"] = _sha(build_report(
                view, result, app=app, system=system, scale=scale,
                sync_names=machine.sync.sync_names(),
            ))
        else:
            assert view.dropped > 0, "max_events must be below the event count"
            out["summary"] = _sha(view.summary())
            out["hottest"] = _sha(view.hottest_blocks(50))
            out["busiest"] = _sha(view.busiest_blocks(50))
            out["events"] = _sha([astuple(e) for e in view.events])
    return out


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: f"{c[0]}-{c[1]}")
@pytest.mark.parametrize("stack", STACKS, ids="-".join)
def test_view_outputs_match_pinned_digests(cell, stack):
    app, system = cell[:2]
    got = run_stack(*cell, stack)
    want = DIGESTS[f"{app}/{system}"]
    assert got == {k: want[k] for k in got}


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: f"{c[0]}-{c[1]}")
def test_digests_hold_across_chunk_boundaries(cell, monkeypatch):
    """A fold every 7 rows lands chunk boundaries inside bucket spans,
    between a crossing and its deposits, and around phase markers."""
    monkeypatch.setattr(trace, "_CHUNK", 7)
    app, system = cell[:2]
    got = run_stack(*cell, STACKS[1])
    assert got == DIGESTS[f"{app}/{system}"]


def test_log_holds_at_most_max_events_plus_one_chunk(monkeypatch):
    chunk, max_events = 64, 100
    monkeypatch.setattr(trace, "_CHUNK", chunk)
    held = []
    flush = EventLog.flush

    def watched(log):
        kept = sum(len(v._kind) for v in trace._live(log._views) if isinstance(v, TracingMemory))
        held.append(len(log._rows) + kept)
        flush(log)

    monkeypatch.setattr(EventLog, "flush", watched)
    _, _, tracer, *_ = run_machine(
        preset("smoke")["IS"][0](), "z-mc", MachineConfig(),
        attach=(
            partial(TracingMemory.attach, max_events=max_events),
            partial(MetricsCollector.attach, interval=INTERVAL),
            AttributionCollector.attach,
        ),
    )
    assert tracer.dropped > chunk
    assert len(held) > 2
    assert max(held) <= max_events + chunk


def test_directly_built_views_take_the_five_callbacks():
    """A view built without ``attach`` owns a private log and is fed
    through its own callbacks."""
    mem = SimpleNamespace(line_size=4)
    views = (
        TracingMemory(4), MetricsCollector(nprocs=2, interval=10.0),
        AttributionCollector(mem, nprocs=2),
    )
    lock = SyncPoint("lock", 0, 1)
    for view in views:
        view.on_phase(0, 0.0, "work")
        view.on_busy(0, 0.0, 5.0)
        view.on_access(0, "read", 8, 5.0, AccessResult(12.0, read_stall=6.0), 1.0)
        view.on_access(1, "acquire", lock, 0.0, AccessResult(4.0, buffer_flush=4.0), 0.0)
        view.on_stall(1, 4.0, 3.0, "write")
        view.on_sync_wait(1, 7.0, 2.0)
    tracer, metrics, attrib = views
    assert len({id(view._log) for view in views}) == 3
    assert [(e.kind, e.proc, e.addr) for e in tracer.events] == [
        ("phase", 0, None), ("read", 0, 8), ("acquire", 1, None),
    ]
    assert tracer.hottest_blocks() == [("block:2", 6.0)]
    assert metrics.totals() == {
        "busy": 6.0, "read_stall": 6.0, "write_stall": 3.0, "buffer_flush": 4.0,
        "sync_wait": 2.0,
    }
    assert metrics.to_dict()["counters"] == {"accesses": 2, "sync_events": 1}
    assert attributed_totals(attrib) == {
        "read_stall": [6.0, 0.0], "write_stall": [0.0, 3.0], "buffer_flush": [0.0, 4.0],
    }
    assert attrib.phase_marks == [(0.0, 0, "work")]


@pytest.mark.parametrize("system", ["RCinv", "z-mc"])
def test_dropped_observed_run_is_freed_without_the_collector(system):
    """With the cycle collector off, a run observed by all three views
    frees its engine, memory system and views once the caller drops it."""
    hooks = (
        TracingMemory.attach,
        partial(MetricsCollector.attach, interval=INTERVAL),
        AttributionCollector.attach,
    )
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        out = run_machine(
            preset("smoke")["IS"][0](), system, MachineConfig(nprocs=4), attach=hooks
        )
        machine = out[0]
        alive = [weakref.ref(x) for x in (machine.engine, machine.memsys, *out[2:])]
        del out, machine
        assert [r() for r in alive] == [None] * len(alive)
    finally:
        if enabled:
            gc.enable()


def test_machine_keeps_unheld_views_folding():
    """A view whose handle the caller drops still folds the whole run:
    its machine keeps it alive."""
    def attach_unheld(machine) -> None:
        TracingMemory.attach(machine)

    def run(hook):
        return run_machine(preset("smoke")["IS"][0](), "z-mc", MachineConfig(), attach=(hook,))

    want = run(TracingMemory.attach)[2]
    (tracer,) = run(attach_unheld)[0].views
    assert tracer.summary() == want.summary()
    assert tracer.events == want.events


if __name__ == "__main__":
    digests = {f"{c[0]}/{c[1]}": run_stack(*c, STACKS[0]) for c in CELLS}
    print(json.dumps(digests, indent=4))
