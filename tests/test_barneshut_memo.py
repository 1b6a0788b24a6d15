"""Barnes-Hut's process-wide force memo and its lazily built trees.

A step whose owned forces are all memoised needs no quadtree: the memo
also holds the step tree's node count, which is all the build phase's
``Compute`` charges for.  These tests count ``build_tree`` calls and
check that a warm run charges the cold run's cycles exactly.
"""

from __future__ import annotations

import json

import pytest

from repro.apps import barneshut
from repro.apps.base import run_machine
from repro.apps.factory import AppFactory
from repro.apps.presets import SCALES, preset
from repro.config import MachineConfig
from repro.sim.observer import Observer, subscribe
from repro.sim.reference import capture_outcome

CONFIG = MachineConfig(nprocs=16)


class BusyRecorder(Observer):
    """Every busy charge, the ``Compute`` costs among them."""

    def __init__(self) -> None:
        self.busy: list[tuple[int, float, float]] = []

    def on_busy(self, proc, start, cycles):
        self.busy.append((proc, start, cycles))


@pytest.fixture
def builds(monkeypatch):
    """An empty force memo and a counter of ``build_tree`` calls."""
    monkeypatch.setattr(barneshut, "_FORCE_MEMO", {})
    count = [0]
    build = barneshut.build_tree

    def counted(xs, ys, ms):
        count[0] += 1
        return build(xs, ys, ms)

    monkeypatch.setattr(barneshut, "build_tree", counted)
    return count


def _run(builds: list[int], system: str = "z-mc") -> tuple[int, list, str]:
    """One small-scale Nbody run, verified after it finishes: (trees
    the run built, busy charges, outcome JSON)."""
    builds[0] = 0
    rec = BusyRecorder()
    app = preset("small")["Nbody"][0]()
    machine, result, *_ = run_machine(
        app, system, CONFIG, verify=False, attach=(lambda m: subscribe(m.engine, rec),)
    )
    built = builds[0]
    app.verify()
    return built, rec.busy, json.dumps(capture_outcome(machine, result), sort_keys=True)


def test_warm_run_builds_no_tree(builds):
    built, *cold = _run(builds)
    assert built == preset("small")["Nbody"][0]().steps  # one shared build per step
    built, *warm = _run(builds)
    assert built == 0
    assert warm == cold
    # Memo entries hold numbers only, never trees.
    for entry in barneshut._FORCE_MEMO.values():
        assert isinstance(entry.nnodes, int)
        assert all(isinstance(v, tuple) for v in entry.forces.values())


def test_warm_memo_serves_other_systems(builds):
    _, *cold = _run(builds, "RCinv")
    built, *again = _run(builds, "RCinv")
    assert built == 0 and again == cold
    assert _run(builds, "RCupd")[0] == 0


def test_missing_owned_force_builds_the_tree(builds):
    _, *cold = _run(builds)
    # Drop one body's force from the second step's memo: only that
    # body's owner needs the step's tree, and it builds it once.
    entry = list(barneshut._FORCE_MEMO.values())[1]
    del entry.forces[5]
    built, *again = _run(builds)
    assert built == 1
    assert again == cold
    assert 5 in entry.forces


def test_memo_bound_covers_every_preset_run():
    longest = max(preset(scale)["Nbody"][0]().steps for scale in SCALES)
    assert barneshut._FORCE_MEMO_MAX >= longest


def test_second_system_builds_no_tree_past_sixteen_steps(builds):
    # More steps than the memo's former bound of 16: a FIFO memo that
    # small evicts step 0 before the next system asks for it.
    factory = AppFactory("Nbody", n_bodies=16, steps=20, boost_interval=5)
    config = MachineConfig(nprocs=4)
    outcomes = []
    for system, trees in (("z-mc", 20), ("RCinv", 0), ("z-mc", 0)):
        builds[0] = 0
        app = factory()
        machine, result, *_ = run_machine(app, system, config, verify=False)
        assert builds[0] == trees, system
        app.verify()
        outcomes.append(json.dumps(capture_outcome(machine, result), sort_keys=True))
    assert outcomes[2] == outcomes[0]
