"""Scenario registry, injector neutrality, and degradation direction.

The load-bearing property is **injector neutrality**: a
:class:`~repro.scenarios.inject.Degradation` whose every factor is
exactly 1.0 must exercise all the injection code paths (engine Compute
scaling, per-home memory cost table, degraded link routing) while
producing results bit-identical to the undegraded engine.  That is
pinned against the full golden fixture — the same 36 runs
``tests/test_engine_equivalence.py`` replays — so the degradation
threading cannot perturb the baseline.

The directional tests then check the injectors do what they claim when
the factors are *not* 1.0: CPU degradation strictly increases busy
time, memory/link degradation strictly increases the affected stall
categories, every scenario strictly increases somebody's total time.
"""

from __future__ import annotations

import json

import pytest

from repro.apps.factory import AppFactory
from repro.config import MachineConfig
from repro.core.study import run_study
from repro.mem.systems import make_system
from repro.scenarios import (
    SCENARIO_NAMES,
    SCENARIO_REGISTRY,
    Degradation,
    apply_scenario,
    build_report,
    get_scenario,
    neutral_degradation,
    parse_overrides,
    run_scenario_matrix,
)
from repro.scenarios.registry import undirected_links
from tests.golden import FIXTURE, PROC_FIELDS, golden_cases, run_case
from tests.oracles import is_neutral

GOLDEN = json.loads(FIXTURE.read_text())
CASE_IDS = sorted(GOLDEN["runs"])


# ---------------------------------------------------------------------------
# Degradation spec validation


def test_degradation_defaults_are_neutral():
    d = Degradation()
    assert is_neutral(d)
    assert not d.affects_cpu
    assert d.cpu_factor(0) == 1.0
    assert d.mem_factor(5) == 1.0


def test_degradation_rejects_bad_factors():
    with pytest.raises(ValueError):
        Degradation(node_cpu=((0, 0.0),))
    with pytest.raises(ValueError):
        Degradation(node_mem=((0, -1.0),))
    with pytest.raises(ValueError):
        Degradation(node_cpu=((0, 2.0), (0, 3.0)))  # duplicate node
    with pytest.raises(ValueError):
        Degradation(links=((3, 3, 2.0, 2.0),))  # self-link
    with pytest.raises(ValueError):
        Degradation(burst_duty=1.5)


def test_config_validates_node_range():
    with pytest.raises(ValueError):
        MachineConfig(nprocs=4, degradation=Degradation(node_cpu=((7, 2.0),)))
    with pytest.raises(ValueError):
        MachineConfig(nprocs=4, degradation=Degradation(links=((0, 9, 2.0, 2.0),)))


def test_degrade_link_rejects_non_physical_link():
    cfg = MachineConfig()
    # (0, 5) is not a mesh link on the 4x4 mesh (nodes 0 and 5 are diagonal).
    with pytest.raises(ValueError):
        make_system("RCinv", cfg.replace(degradation=Degradation(links=((0, 5, 2.0, 2.0),))))


def test_factor_tables_are_dense():
    d = Degradation(node_cpu=((1, 2.0),), node_mem=((3, 4.0),))
    assert d.cpu_factors(4) == [1.0, 2.0, 1.0, 1.0]
    assert d.mem_factors(4) == [1.0, 1.0, 1.0, 4.0]


# ---------------------------------------------------------------------------
# registry surface


def test_registry_names_and_baseline():
    assert SCENARIO_NAMES[0] == "baseline"
    assert set(SCENARIO_NAMES) == {
        "baseline", "hotspot", "limping_nodes", "slow_links", "bursty", "heterogeneous",
    }
    cfg = MachineConfig()
    assert apply_scenario("baseline", cfg).degradation is None


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_every_scenario_builds_a_valid_config(name):
    cfg = MachineConfig()
    scn_cfg = apply_scenario(name, cfg)  # MachineConfig.__post_init__ validates
    if name != "baseline":
        assert scn_cfg.degradation is not None
        assert not is_neutral(scn_cfg.degradation)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenarios_are_deterministic(name):
    cfg = MachineConfig()
    assert apply_scenario(name, cfg) == apply_scenario(name, cfg)


def test_knob_overrides_and_rejection():
    cfg = MachineConfig()
    scn = apply_scenario("hotspot", cfg, {"hot_nodes": 3, "mem_factor": 8.0})
    assert scn.degradation.node_mem == ((0, 8.0), (5, 8.0), (10, 8.0))
    with pytest.raises(ValueError, match="no knob"):
        apply_scenario("hotspot", cfg, {"bogus": 1.0})
    with pytest.raises(ValueError, match="unknown scenario"):
        get_scenario("nope")


def test_parse_overrides():
    assert parse_overrides(["a=2", "b=0.5"]) == {"a": 2.0, "b": 0.5}
    with pytest.raises(ValueError):
        parse_overrides(["nonsense"])
    with pytest.raises(ValueError):
        parse_overrides(["a=abc"])


def test_scenarios_work_on_every_topology():
    for topology in ("mesh", "torus", "ring", "hypercube"):
        cfg = MachineConfig(topology=topology)
        scn_cfg = apply_scenario("slow_links", cfg)
        links = set(undirected_links(cfg))
        for u, v, _, _ in scn_cfg.degradation.links:
            assert (u, v) in links


# ---------------------------------------------------------------------------
# injector neutrality: all-1.0 factors bit-identical across the goldens


def test_neutral_degradation_touches_every_axis():
    cfg = MachineConfig()
    nd = neutral_degradation(cfg)
    assert is_neutral(nd)
    assert nd.affects_cpu  # the engine branch runs
    assert len(nd.node_cpu) == cfg.nprocs
    assert len(nd.node_mem) == cfg.nprocs
    assert len(nd.links) == len(undirected_links(cfg))


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_all_one_factors_bit_identical_to_goldens(case_id):
    app_name, system = case_id.split("/")
    factory, verify = golden_cases()[app_name]
    nprocs = GOLDEN["nprocs"]
    cfg = MachineConfig(nprocs=nprocs)
    neutral_cfg = cfg.replace(degradation=neutral_degradation(cfg))
    expected = GOLDEN["runs"][case_id]
    actual = run_case(factory, system, verify, config=neutral_cfg)

    assert actual["total_time"] == expected["total_time"]
    assert actual["ops"] == expected["ops"]
    for got, want in zip(actual["procs"], expected["procs"]):
        for field in PROC_FIELDS:
            assert got[field] == want[field], f"{case_id}: {field} diverged"
    assert actual["network_messages"] == expected["network_messages"]
    assert actual["network_bytes"] == expected["network_bytes"]
    assert actual["traffic"] == expected["traffic"]
    assert actual["memory"] == expected["memory"]


# ---------------------------------------------------------------------------
# direction: non-1.0 factors move the affected categories the right way


def _smoke_factory(app="Nbody"):
    from repro.apps.presets import smoke_scale

    return smoke_scale()[app][0]


def _one(config, system="RCinv", app="Nbody"):
    study = run_study(_smoke_factory(app), config=config, systems=(system,))
    return study.systems[0]


def test_cpu_degradation_strictly_increases_busy():
    cfg = MachineConfig()
    base = _one(cfg)
    limp = _one(apply_scenario("limping_nodes", cfg))
    assert limp.busy > base.busy
    assert limp.total_time > base.total_time


def test_heterogeneous_strictly_increases_busy():
    cfg = MachineConfig()
    base = _one(cfg)
    het = _one(apply_scenario("heterogeneous", cfg))
    assert het.busy > base.busy


def test_bursty_strictly_increases_busy():
    cfg = MachineConfig()
    base = _one(cfg)
    burst = _one(apply_scenario("bursty", cfg))
    assert burst.busy > base.busy


def test_hotspot_strictly_increases_read_stall():
    cfg = MachineConfig()
    base = _one(cfg)
    hot = _one(apply_scenario("hotspot", cfg, {"hot_nodes": 4, "mem_factor": 8.0}))
    assert hot.read_stall > base.read_stall


def test_slow_links_strictly_increase_read_stall_and_time():
    cfg = MachineConfig()
    base = _one(cfg)
    slow = _one(apply_scenario("slow_links", cfg))
    assert slow.read_stall > base.read_stall
    assert slow.total_time > base.total_time


def test_zmachine_unaffected_by_mem_and_link_degradation():
    """The z-machine is the ideal reference: hotspot/slow_links leave it
    untouched (it rides an IdealNetwork and models no directory cost)."""
    cfg = MachineConfig()
    base = _one(cfg, system="z-mc")
    for scenario in ("hotspot", "slow_links"):
        deg = _one(apply_scenario(scenario, cfg), system="z-mc")
        assert deg.total_time == base.total_time, scenario


def test_degraded_network_queues_behind_slow_link():
    """Back-to-back messages over a bandwidth-degraded link queue longer."""
    cfg = MachineConfig()
    links = undirected_links(cfg)
    u, v = links[0]
    slow_cfg = cfg.replace(degradation=Degradation(links=((u, v, 1.0, 10.0),)))
    fast = make_system("RCinv", cfg).network
    slow = make_system("RCinv", slow_cfg).network
    t_fast = [fast.transfer(u, v, 32, 0.0) for _ in range(3)]
    t_slow = [slow.transfer(u, v, 32, 0.0) for _ in range(3)]
    assert t_slow[0] > t_fast[0]          # serialisation tail is slower
    assert (t_slow[2] - t_slow[0]) > (t_fast[2] - t_fast[0])  # queueing grows


# ---------------------------------------------------------------------------
# knob edge cases: the corners of the fuzz draw space
#
# Factors of exactly 1.0, zero-width burst windows, and single-node /
# single-link selections must either be bit-identical to the clean
# machine (neutral knobs exercise the injection paths without perturbing
# results) or be rejected with a ValueError — never silently wrong.

EDGE_APP = AppFactory("IS", n_keys=128, nbuckets=16)


@pytest.fixture(scope="module")
def edge_baseline():
    return json.loads(json.dumps(
        run_case(EDGE_APP, "RCinv", True, config=MachineConfig(nprocs=4))
    ))


def _edge_run(scenario, overrides):
    cfg = apply_scenario(scenario, MachineConfig(nprocs=4), overrides)
    return json.loads(json.dumps(run_case(EDGE_APP, "RCinv", True, config=cfg)))


@pytest.mark.parametrize(
    "scenario,overrides",
    [
        ("hotspot", {"mem_factor": 1.0}),
        ("limping_nodes", {"cpu_factor": 1.0, "mem_factor": 1.0}),
        ("slow_links", {"latency_factor": 1.0, "bandwidth_factor": 1.0}),
        ("bursty", {"factor": 1.0}),
        ("heterogeneous", {"max_factor": 1.0}),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_unit_factors_bit_identical_to_baseline(scenario, overrides, edge_baseline):
    assert _edge_run(scenario, overrides) == edge_baseline


def test_zero_width_burst_window_bit_identical(edge_baseline):
    # duty=0.0 with a large factor: the burst window never opens, so the
    # burst schedule code runs but scales nothing.
    assert _edge_run("bursty", {"duty": 0.0, "factor": 4.0}) == edge_baseline


def test_full_duty_burst_is_valid_and_slower(edge_baseline):
    # duty=1.0 is the other inclusive endpoint: always bursting.
    slowed = _edge_run("bursty", {"duty": 1.0, "factor": 2.0})
    assert slowed["total_time"] > edge_baseline["total_time"]


def test_hotspot_single_node_selection():
    cfg = apply_scenario("hotspot", MachineConfig(nprocs=4), {"hot_nodes": 1})
    assert len(cfg.degradation.node_mem) == 1
    (node, factor), = cfg.degradation.node_mem
    assert 0 <= node < 4 and factor == 4.0
    run_case(EDGE_APP, "RCinv", True, config=cfg)  # runs and verifies


def test_slow_links_single_link_selection():
    cfg = apply_scenario("slow_links", MachineConfig(nprocs=4), {"n_links": 1})
    assert len(cfg.degradation.links) == 1
    run_case(EDGE_APP, "RCinv", True, config=cfg)


def test_slow_links_on_single_node_machine():
    # A one-node machine has no links: the selection is empty, the spec
    # is (vacuously) neutral, and the run still verifies.
    cfg = apply_scenario("slow_links", MachineConfig(nprocs=1))
    assert cfg.degradation.links == ()
    run_case(AppFactory("IS", n_keys=64, nbuckets=8), "RCinv", True, config=cfg)


def test_edge_knob_values_correctly_rejected():
    cfg = MachineConfig(nprocs=4)
    with pytest.raises(ValueError):
        apply_scenario("hotspot", cfg, {"mem_factor": 0.0})
    with pytest.raises(ValueError):
        apply_scenario("limping_nodes", cfg, {"cpu_factor": -1.0})
    with pytest.raises(ValueError):
        apply_scenario("bursty", cfg, {"duty": 1.5})
    with pytest.raises(ValueError):
        apply_scenario("slow_links", cfg, {"bandwidth_factor": 0.0})
    # period=0.0 is the documented off-switch, not an error
    off = apply_scenario("bursty", cfg, {"period": 0.0})
    assert is_neutral(off.degradation)


# ---------------------------------------------------------------------------
# matrix + report


def test_scenario_matrix_report_shape():
    report = run_scenario_matrix(
        ["hotspot"], scale="smoke", apps=["IS"], systems=("z-mc", "RCinv"), jobs=1
    )
    assert report["bench"] == "scenario-degradation"
    assert set(report["scenarios"]) == {"baseline", "hotspot"}
    entry = report["scenarios"]["hotspot"]["apps"]["IS"]["systems"]["RCinv"]
    assert entry["total_time"] > 0
    assert "slowdown_vs_z" in entry
    assert "vs_baseline" in entry
    assert report["scenarios"]["hotspot"]["knobs"] == {"hot_nodes": 1, "mem_factor": 4.0}
    base_entry = report["scenarios"]["baseline"]["apps"]["IS"]["systems"]["RCinv"]
    assert "vs_baseline" not in base_entry
    assert report["manifest"]["kind"] == "scenario-matrix"


def test_report_builds_without_zmachine():
    report = run_scenario_matrix(
        ["bursty"], scale="smoke", apps=["IS"], systems=("RCinv",), jobs=1
    )
    entry = report["scenarios"]["bursty"]["apps"]["IS"]["systems"]["RCinv"]
    assert "slowdown_vs_z" not in entry
    assert entry["vs_baseline"]["slowdown"] > 0


def test_matrix_manifest_counts_this_calls_cache_hits(tmp_path):
    """The manifest's cache block describes this call's jobs, not the
    lifetime counters of a cache shared across calls."""
    from repro.core.parallel import ResultCache

    cache = ResultCache(tmp_path)
    blocks = [
        run_scenario_matrix(
            ["hotspot"], scale="smoke", apps=["IS"], systems=("z-mc",), cache=cache
        )["manifest"]["cache"]
        for _ in range(2)
    ]
    assert [(b["hits"], b["misses"], b["hit_rate"]) for b in blocks] == [
        (0, 2, 0.0),
        (2, 0, 1.0),
    ]
    assert blocks[1]["entries"] == 2


def test_build_report_is_pure():
    """build_report over hand-made runs — no simulation needed."""
    from repro.core.parallel import JobResult
    from repro.sim.stats import SimResult, ProcStats

    def fake(total):
        procs = [ProcStats() for _ in range(2)]
        procs[0].busy = total / 2
        return JobResult(system="RCinv", result=SimResult(total_time=total, procs=procs), app="IS")

    index = [("baseline", "IS", "RCinv"), ("bursty", "IS", "RCinv")]
    results = [fake(100.0), fake(150.0)]
    report = build_report(
        index, results, {"baseline": {}, "bursty": {"period": 10.0}},
        scale="smoke", nprocs=2, systems=["RCinv"],
    )
    entry = report["scenarios"]["bursty"]["apps"]["IS"]["systems"]["RCinv"]
    assert entry["vs_baseline"]["slowdown"] == 1.5


# ---------------------------------------------------------------------------
# CLI surface


def test_cli_scenario_list_and_describe(capsys):
    from repro.__main__ import main

    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIO_NAMES:
        assert name in out
    assert main(["scenario", "describe", "limping_nodes"]) == 0
    out = capsys.readouterr().out
    for knob in SCENARIO_REGISTRY["limping_nodes"].knobs:
        assert knob.name in out


def test_cli_scenario_run_smoke(tmp_path, capsys):
    from repro.__main__ import main

    out = tmp_path / "report.json"
    rc = main([
        "scenario", "run", "--scenario", "hotspot", "--app", "IS", "--scale", "smoke",
        "--systems", "z-mc", "RCinv", "--no-cache", "--out", str(out),
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert set(report["scenarios"]) == {"baseline", "hotspot"}
    assert capsys.readouterr().out  # the text table was printed


def test_cli_scenario_run_rejects_unknowns():
    from repro.__main__ import main

    with pytest.raises(SystemExit):
        main(["scenario", "run", "--scenario", "nope", "--scale", "smoke", "--no-cache"])
    with pytest.raises(SystemExit):
        main(["scenario", "run", "--scenario", "hotspot", "--set", "bogus=2",
              "--scale", "smoke", "--no-cache"])
