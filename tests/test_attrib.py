"""Overhead attribution (`repro.obs.attrib`).

The load-bearing guarantee is **exactness**: for every standard app on
every system, the cycles the collector attributes per stall category
equal the ``SimResult`` totals bit-for-bit — attribution never invents
or loses a cycle.  On top of that: every dimension partitions the
attributed overhead, the report document is stable (golden fixture),
and the differential mode is consistent (self-diff is empty, swapping
the operands negates every delta).

Regenerate the golden fixture after an intentional engine/protocol
change with ``PYTHONPATH=src python -m tests.test_attrib``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.apps.presets import smoke_scale
from repro.config import MachineConfig
from repro.obs.attrib import (
    DIMENSIONS,
    EXACT_TOLERANCE,
    OVERHEAD_CATEGORIES,
    STALL_ROW,
    AttributionCollector,
    block_span_name,
    block_span_names,
    build_report,
    diff_reports,
    load_report,
    run_attribution,
)
from repro.obs.timeline import attribution_to_perfetto
from repro.runtime.context import Machine
from tests.oracles import attributed_totals

FIXTURE = Path(__file__).parent / "fixtures" / "attrib_golden.json"

#: The exact-sum matrix the issue pins: each app on the two extreme
#: protocols plus the zero-overhead base machine.
SYSTEMS = ("RCinv", "RCupd", "z-mc")


def _run(app_name: str, system: str):
    """(report, result, collector) for one smoke-scale run."""
    factory = smoke_scale()[app_name][0]
    cfg = MachineConfig()
    app = factory()
    machine = Machine(cfg, system)
    app.setup(machine)
    collector = AttributionCollector.attach(machine)
    result = machine.run(app.worker)
    from repro.obs.attrib import build_report

    report = build_report(
        collector, result, app=app_name, system=system, scale="smoke",
        sync_names=machine.sync.sync_names(),
    )
    return report, result, collector


def _report(app_name: str, system: str) -> dict:
    factory = smoke_scale()[app_name][0]
    report, _ = run_attribution(
        factory, system, MachineConfig(), app=app_name, scale="smoke"
    )
    return report


# ---------------------------------------------------------------------------
# exact-sum invariant


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("app_name", sorted(smoke_scale()))
def test_attribution_exact_bit_for_bit(app_name, system):
    """Per-proc per-category attributed cycles == ProcStats, with ==."""
    report, result, collector = _run(app_name, system)
    totals = attributed_totals(collector)
    for cat in OVERHEAD_CATEGORIES:
        for p, proc in enumerate(result.procs):
            assert totals[cat][p] == getattr(proc, cat), (
                f"{app_name}/{system} proc {p} {cat}: "
                f"attributed {totals[cat][p]!r} != engine {getattr(proc, cat)!r}"
            )
    assert report["exact"] is True
    for cat in OVERHEAD_CATEGORIES:
        assert report["residual"][cat] == 0.0


@pytest.mark.parametrize("app_name", sorted(smoke_scale()))
def test_every_dimension_partitions_the_overhead(app_name):
    """Each dimension's rows sum to the attributed overhead (1e-6)."""
    report, _, _ = _run(app_name, "RCinv")
    attributed = sum(report["attributed"].values())
    for dim in DIMENSIONS:
        rows = report["dims"][dim]
        assert math.isclose(
            sum(r["overhead"] for r in rows), attributed,
            rel_tol=0.0, abs_tol=EXACT_TOLERANCE,
        ), f"dimension {dim!r} does not partition the overhead"
        for cat in OVERHEAD_CATEGORIES:
            assert math.isclose(
                sum(r[cat] for r in rows), report["attributed"][cat],
                rel_tol=0.0, abs_tol=EXACT_TOLERANCE,
            )


@pytest.mark.parametrize("contexts", [1, 2, 4])
def test_attribution_exact_under_multithreading(contexts):
    """Switch-on-miss contexts hide ReadNB latency and charge Stall ops;
    attribution takes the engine's charged cycles, so it stays exact and
    the Stall cycles form a "(stall ops)" row in every dimension."""
    from .test_multithread import scan_machine

    machine, worker, *_ = scan_machine(contexts_per_proc=contexts)
    collector = AttributionCollector.attach(machine)
    result = machine.run(worker)
    report = build_report(collector, result)
    assert report["exact"] is True
    assert report["residual"] == dict.fromkeys(OVERHEAD_CATEGORIES, 0.0)
    attributed = sum(report["attributed"].values())
    for dim in DIMENSIONS:
        rows = report["dims"][dim]
        assert math.isclose(
            sum(r["overhead"] for r in rows), attributed,
            rel_tol=0.0, abs_tol=EXACT_TOLERANCE,
        )
        if dim != "phase":
            assert STALL_ROW in {r["key"] for r in rows}


def test_attribution_does_not_change_simulated_results():
    factory = smoke_scale()["Maxflow"][0]
    cfg = MachineConfig()

    def run(attach: bool):
        app = factory()
        machine = Machine(cfg, "RCinv")
        app.setup(machine)
        if attach:
            AttributionCollector.attach(machine)
        return machine.run(app.worker)

    plain, attributed = run(False), run(True)
    assert plain.total_time == attributed.total_time
    assert plain.ops == attributed.ops
    for a, b in zip(plain.procs, attributed.procs):
        assert (a.busy, a.read_stall, a.write_stall, a.buffer_flush, a.sync_wait) == (
            b.busy, b.read_stall, b.write_stall, b.buffer_flush, b.sync_wait
        )


# ---------------------------------------------------------------------------
# report content


def test_report_names_regions_syncs_phases_and_homes():
    report, _, _ = _run("Maxflow", "RCinv")
    block_keys = {r["key"] for r in report["dims"]["block"]}
    assert any(k.startswith("excess") for k in block_keys)
    sync_keys = {r["key"] for r in report["dims"]["sync"]}
    assert any(k.startswith("lock:mf.") for k in sync_keys)
    assert "(data)" in sync_keys
    is_report, _, _ = _run("IS", "RCinv")
    assert "barrier:is.barrier#0" in {r["key"] for r in is_report["dims"]["sync"]}
    assert {r["key"] for r in report["dims"]["phase"]} >= {"discharge"}
    assert any(r["key"].startswith("node ") for r in report["dims"]["home"])
    # home rows carry directory-population context
    node_rows = [r for r in report["dims"]["home"] if r["key"].startswith("node ")]
    assert all("dir_blocks" in r for r in node_rows)
    # the route-weighted link load exists on a mesh machine
    assert report["links"] and "->" in report["links"][0]["link"]


def test_z_machine_report_is_pure_read_stall():
    report, _, _ = _run("IS", "z-mc")
    assert report["exact"] is True
    assert report["attributed"]["write_stall"] == 0.0
    assert report["attributed"]["buffer_flush"] == 0.0


def test_block_span_name_falls_back_without_shm():
    assert block_span_name(None, 32, 7) == ("block:7", "block:7")


def _scan_span_name(shm, line: int, block: int) -> tuple[str, str]:
    """Reference: intersect the block with every array in turn."""
    lo, hi = block * line, (block + 1) * line
    spans, names = [], []
    for arr in shm.arrays:
        word = arr._word
        base, end = arr.base, arr.base + arr.n * word
        if lo < end and hi > base:
            e0 = max(0, (lo - base) // word)
            e1 = min(arr.n, (hi - base + word - 1) // word)
            name = arr.name or f"@0x{arr.base:x}"
            spans.append(f"{name}[{e0}:{e1}]" if arr.n > 1 else name)
            names.append(name)
    if not spans:
        return f"block:{block}", f"block:{block}"
    return "+".join(spans), "+".join(names)


def test_block_span_name_matches_a_scan_of_every_array():
    """Both namers name every block as a scan does: blocks shared by
    several arrays, empty, unnamed and one-element arrays, padding.  The
    walk is fed as build_report feeds it, one ascending run of blocks
    per phase, on the z-machine's 4-byte lines and on 32-byte lines."""
    for system, line in (("z-mc", 4), ("RCinv", 32)):
        machine = Machine(MachineConfig(), system)
        shm = machine.shm
        assert machine.memsys.line_size == line
        shm.array(3, name="a")
        shm.array(0, name="empty")
        shm.array(5, name="b")
        shm.scalar(name="s")
        shm.array(2)
        shm.array(0, name="empty2")
        shm.array(1, name="one")
        shm.array(20, name="padded", align_line=True, pad_to_line=True)
        shm.array(7, name="c")
        blocks = list(range(shm._next_addr // line + 3))
        scan = [_scan_span_name(shm, line, block) for block in blocks]
        assert any(span.startswith("block:") for span, _ in scan)
        assert ("+" in "".join(span for span, _ in scan)) == (line == 32)
        for block in blocks:
            assert block_span_name(shm, line, block) == scan[block]
        # Each run restarts the walk below where the last one ended,
        # except the third, which starts on the block the second ended on.
        every_third = blocks[::3]
        runs = [
            blocks, every_third, every_third[-1:] + blocks[-1:],
            [b for b in blocks if b % 2], blocks[5:9], [0],
        ]
        fed = [block for run in runs for block in run]
        assert list(block_span_names(shm, line, fed)) == [scan[b] for b in fed]
        assert list(shm.name_blocks(fed, line)) == [scan[b] for b in fed]


class _StubMem:
    """Minimal memory system for collector unit tests."""

    line_size = 32

    def __init__(self):
        from repro.sim.stats import AccessResult

        self._hit_result = AccessResult(0.0, hit=True)

    def read(self, proc, addr, now):
        from repro.sim.stats import AccessResult

        return AccessResult(now + 10.0, read_stall=5.0)

    def write(self, proc, addr, now):
        return self._hit_result

    def home_of(self, block):
        return block % 4


def test_startup_phase_and_per_proc_phase_switching():
    """Accesses before a proc's first marker land in '(startup)'; a
    phase marker moves only that proc's attribution target."""
    mem = _StubMem()
    c = AttributionCollector(mem, nprocs=4)

    def access(kind, proc, addr, now):
        res = getattr(mem, kind)(proc, addr, now)
        c.on_access(proc, kind, addr, now, res, 0.0)

    access("read", 0, 0, 0.0)    # proc 0, still in startup
    c.on_phase(0, 1.0, "work")
    access("read", 0, 64, 2.0)   # proc 0, now in "work"
    access("read", 1, 0, 3.0)    # proc 1 never saw a marker
    totals = attributed_totals(c)     # reading folds the rows fed so far
    # (phase_id, block): proc 0 and proc 1's startup reads share a cell
    cells = {
        (pid, block): n
        for pid, touches in enumerate(c._touches) for block, n in enumerate(touches) if n
    }
    assert set(cells) == {(0, 0), (1, 2)}
    assert cells[(0, 0)] == 2     # two startup accesses to block 0
    assert c._phase_names == ["(startup)", "work"]
    assert totals["read_stall"] == [10.0, 5.0, 0.0, 0.0]
    # the stall-free write flyweight took the count-only fast path
    access("write", 2, 0, 4.0)
    assert totals == attributed_totals(c)


# ---------------------------------------------------------------------------
# golden report


def _golden_case() -> dict:
    report, _, _ = _run("Maxflow", "RCinv")
    report["links"] = report["links"][:5]
    return report


def test_golden_attribution_report():
    """The full Maxflow/RCinv report is bit-stable (floats survive JSON)."""
    assert FIXTURE.exists(), (
        f"golden fixture missing; regenerate with "
        f"PYTHONPATH=src python -m tests.test_attrib"
    )
    expected = json.loads(FIXTURE.read_text())
    actual = json.loads(json.dumps(_golden_case()))
    assert actual == expected, (
        "attribution report drifted from tests/fixtures/attrib_golden.json; "
        "if the change is intentional, regenerate with "
        "PYTHONPATH=src python -m tests.test_attrib"
    )


# ---------------------------------------------------------------------------
# differential mode


def test_diff_self_comparison_is_zero():
    a = _report("IS", "RCinv")
    diff = diff_reports(a, a)
    assert diff["gap"] == 0.0
    assert all(v == 0.0 for v in diff["delta"].values())
    for dim in DIMENSIONS:
        assert diff["dims"][dim] == []
    assert diff["hotspots"] == []


def test_diff_antisymmetry():
    a = _report("IS", "RCinv")
    b = _report("IS", "RCupd")
    fwd = diff_reports(a, b)
    rev = diff_reports(b, a)
    assert fwd["gap"] == -rev["gap"]
    for key in fwd["delta"]:
        assert fwd["delta"][key] == -rev["delta"][key]
    for dim in DIMENSIONS:
        f = {r["key"]: r["delta"] for r in fwd["dims"][dim]}
        r = {row["key"]: row["delta"] for row in rev["dims"][dim]}
        assert set(f) == set(r)
        for key in f:
            assert f[key] == -r[key]


def test_diff_aligns_across_line_sizes_by_array_name():
    """RCinv (32B lines) vs z-mc (4B lines): rows align on array names,
    never on block numbers."""
    a = _report("IS", "RCinv")
    b = _report("IS", "z-mc")
    diff = diff_reports(a, b)
    keys = {r["key"] for r in diff["dims"]["block"]}
    assert not any(k.startswith("block:") for k in keys)
    # the z-machine's only category is read stall, so the flush delta is
    # exactly -RCinv's flush total
    assert diff["delta"]["buffer_flush"] == -a["totals"]["buffer_flush"]


def test_diff_rejects_non_attribution_documents():
    a = _report("IS", "RCinv")
    with pytest.raises(ValueError):
        diff_reports(a, {"kind": "manifest"})


def test_diff_localises_the_rcinv_rcupd_gap():
    """The paper-grounded explanation: the Maxflow RCinv-vs-RCupd gap is
    dominated by invalidation read-stall on the work-counter/excess
    structures inside the discharge phase."""
    a = _report("Maxflow", "RCinv")
    b = _report("Maxflow", "RCupd")
    diff = diff_reports(a, b)
    assert diff["gap"] < 0  # RCupd pays less total overhead here
    top = diff["hotspots"][0]
    assert top["phase"] == "discharge"
    assert top["key"] == "mf.active_count"
    assert top["delta_read_stall"] < 0
    # while RCupd pays *more* flush on sync ops (update write-buffering)
    sync_rows = {r["key"]: r for r in diff["dims"]["sync"]}
    assert sync_rows["lock:mf.count_lock#0"]["delta"] > 0


# ---------------------------------------------------------------------------
# heatmap + CLI + bench


def test_attribution_heatmap_structure():
    report, _, _ = _run("IS", "RCinv")
    doc = attribution_to_perfetto(report, top=4)
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert counters and all("value" in e["args"] for e in counters)
    names = {e["name"] for e in counters}
    assert any(n.startswith("stall: ") for n in names)
    assert "total read stall" in names
    assert doc["otherData"]["kind"] == "attribution-heatmap"
    ts = [e["ts"] for e in doc["traceEvents"]]
    assert ts == sorted(ts)
    # Every hot region has its own counter track.
    tracks = {n for n in names if n.startswith("stall: ")}
    assert len(tracks) == doc["otherData"]["tracks"] == 4


def test_attribution_heatmap_skips_rows_without_overhead():
    """A z-machine report is one "(no overhead)" row per dimension: the
    heatmap draws no region track and counts none."""
    report, _, _ = _run("IS", "z-mc")
    assert [r["overhead"] for r in report["dims"]["block"]] == [0.0]
    doc = attribution_to_perfetto(report, top=4)
    assert doc["otherData"]["tracks"] == 0
    assert not any(e["name"].startswith("stall: ") for e in doc["traceEvents"])


def test_cli_attribute_roundtrip(tmp_path, capsys):
    out = tmp_path / "report.json"
    heat = tmp_path / "heat.json"
    rc = main([
        "attribute", "intsort", "RCinv", "--scale", "smoke",
        "--by", "block", "--top", "3",
        "--out", str(out), "--perfetto", str(heat),
    ])
    assert rc == 0
    assert "overhead attribution: IS on RCinv" in capsys.readouterr().out
    report = load_report(out)
    assert report["exact"] is True
    assert json.loads(heat.read_text())["otherData"]["kind"] == "attribution-heatmap"


def test_cli_attribute_vs_system(capsys):
    rc = main([
        "attribute", "intsort", "RCinv", "--scale", "smoke",
        "--by", "phase", "--vs", "RCupd",
    ])
    assert rc == 0
    assert "overhead diff: A = IS on RCinv  vs  B = IS on RCupd" in capsys.readouterr().out


def test_cli_attribute_vs_scenario(capsys):
    rc = main([
        "attribute", "intsort", "RCinv", "--scale", "smoke",
        "--by", "phase", "--vs", "slow_links",
    ])
    assert rc == 0
    assert "[slow_links]" in capsys.readouterr().out


def test_cli_attribute_rejects_unknown_vs():
    with pytest.raises(SystemExit):
        main(["attribute", "intsort", "RCinv", "--scale", "smoke", "--vs", "bogus"])


def test_cli_diff_roundtrip(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["attribute", "intsort", "RCinv", "--scale", "smoke", "--out", str(a)]) == 0
    assert main(["attribute", "intsort", "RCupd", "--scale", "smoke", "--out", str(b)]) == 0
    out = tmp_path / "diff.json"
    rc = main(["diff", str(a), str(b), "--by", "sync", "--out", str(out)])
    assert rc == 0
    assert "overhead diff" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["kind"] == "attribution-diff"
    # self-diff through the CLI reports identity
    rc = main(["diff", str(a), str(a)])
    assert rc == 0
    assert "reports are identical" in capsys.readouterr().out


def test_cli_diff_rejects_non_report(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "manifest"}\n')
    with pytest.raises(SystemExit):
        main(["diff", str(bad), str(bad)])


# ---------------------------------------------------------------------------
# fixture regeneration


def build_fixture() -> dict:
    return json.loads(json.dumps(_golden_case()))


def main_regen() -> None:  # pragma: no cover - manual tool
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(build_fixture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":  # pragma: no cover
    main_regen()
