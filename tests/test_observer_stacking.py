"""Observers must commute and never perturb results.

Every permutation of the tracer / metrics / attribution / checked
observers stacked on one machine must produce a simulated outcome
bit-identical to the bare run — the observer-neutrality contract the
``reference`` fuzz oracle enforces, pinned here exhaustively for a
fixed configuration (and spot-checked with the host profiler's stack
sampler armed around the run, and under a degraded scenario).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from itertools import permutations

import pytest

from repro.analysis.fuzz import ATTACH, FuzzDraw, run_outcome
from repro.apps.base import run_machine
from repro.sim.reference import run_case
from repro.sim.trace import TracingMemory

BASE = FuzzDraw(
    app="IS",
    app_kwargs=(("n_keys", 128), ("nbuckets", 16), ("seed", 0)),
    system="RCinv",
    nprocs=4,
)

STACKS_4 = list(permutations(("tracer", "metrics", "attrib", "checked")))


@pytest.fixture(scope="module")
def bare():
    return json.loads(json.dumps(
        run_case(BASE.factory(), BASE.system, BASE.verify, config=BASE.config())
    ))


def _stacked(draw, stack):
    return json.loads(json.dumps(run_outcome(draw, stack)))


@pytest.mark.parametrize("stack", STACKS_4, ids="-".join)
def test_all_four_observer_orders_are_neutral(stack, bare):
    assert _stacked(BASE, stack) == bare


@pytest.mark.parametrize(
    "stack",
    [
        ("profiler", "tracer", "metrics", "attrib", "checked"),
        ("checked", "attrib", "metrics", "tracer", "profiler"),
        ("metrics", "profiler", "checked"),
    ],
    ids="-".join,
)
def test_profiler_composes_with_other_observers(stack, bare):
    assert _stacked(BASE, stack) == bare


def test_stacking_is_neutral_under_degradation():
    degraded = replace(
        BASE, scenario="bursty", knobs=(("duty", 0.5), ("factor", 2.0))
    )
    bare = json.loads(json.dumps(
        run_case(degraded.factory(), degraded.system, degraded.verify,
                 config=degraded.config())
    ))
    assert _stacked(degraded, ("checked", "tracer", "metrics", "attrib")) == bare


#: Nbody on RCupd stalls writes on a full store buffer, so its write,
#: read-miss and release outcomes all come from the memory system's
#: reused result object rather than the stall-free hit flyweight.
WRITE_STALLS = FuzzDraw(
    app="Nbody",
    app_kwargs=(("boost_interval", 1), ("n_bodies", 12), ("steps", 2)),
    system="RCupd",
    nprocs=4,
)
#: SHA-256 of the traced per-access values below, recorded when every
#: miss, stall and flush outcome was a freshly allocated AccessResult.
WRITE_STALL_TRACE_SHA256 = "10ace99634bffa56d5e1087a44643d983f7d04de0834b50714e7584274d879b3"


@pytest.mark.parametrize(
    "stack",
    [
        ("tracer",),
        ("checked", "tracer"),
        ("tracer", "checked"),
        ("attrib", "tracer", "checked", "metrics"),
    ],
    ids="-".join,
)
def test_rcupd_write_stall_values_seen_by_every_stack(stack):
    hooks = [TracingMemory.attach if name == "tracer" else ATTACH[name] for name in stack]
    _, _, *products = run_machine(
        WRITE_STALLS.factory()(), WRITE_STALLS.system, WRITE_STALLS.config(), attach=hooks
    )
    tracer = products[stack.index("tracer")]
    rows = [
        [e.kind, e.proc, e.addr, e.issue, e.complete,
         e.read_stall, e.write_stall, e.buffer_flush, e.hit]
        for e in tracer.events
    ]
    assert any(row[6] > 0.0 for row in rows), "the case must stall writes"
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == WRITE_STALL_TRACE_SHA256
