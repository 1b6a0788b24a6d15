"""perfbench ledger and A/B gate tests: record, report, paired, compare."""

from __future__ import annotations

import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import perf

ROOT = Path(__file__).resolve().parent.parent

#: Untraced perfbench/run.py stdout, as the benchmark prints it.
IDEAL_LOG = """\
perfbench ideal seed=0 scale=large: 4 cells, 12 untraced + 0 traced passes in 32.8 s (checks \
and warm pass 0.3 s)
kernel ms over 195 marks: min 0.5643 median 0.6314 max 1.3346
raw run wall s per untraced pass (not gated): 2.188, 1.573, 2.066
  Cholesky/z-mc          run 0.2180 s  setup 0.00958 s (normalised)
  IS/z-mc                run 0.1439 s  setup 0.00302 s (normalised)
ev_per_s = 836723.0493111744 1/s
setup_s = 0.01968558906606162 s
peak_rss_mb = 156.69140625 MB
obs_ratio = 5.740932449011185 x
{"correct": true, "attempted": 65, "failed": 0, "metrics": {"ev_per_s": {"value": \
836723.0493111744, "unit": "1/s"}, "setup_s": {"value": 0.01968558906606162, "unit": "s"}, \
"peak_rss_mb": {"value": 156.69140625, "unit": "MB"}, "obs_ratio": {"value": \
5.740932449011185, "unit": "x"}}}
"""

TABLE = perf.metric_table(ROOT / perf.BENCHMARK_FILE)


def _log(workload="ideal", correct=True, failed=0, **metrics) -> str:
    """A minimal perfbench stdout with the given metric values."""
    result = {
        "correct": correct,
        "attempted": 4,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": "x"} for name, v in metrics.items()},
    }
    return (
        f"perfbench {workload} seed=0 scale=large: 4 cells, 1 untraced + 0 traced passes\n"
        + json.dumps(result)
        + "\n"
    )


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=repo, check=True, capture_output=True, text=True
    ).stdout.strip()


@pytest.fixture
def repo(tmp_path) -> Path:
    """A clean one-commit git repository."""
    root = tmp_path / "repo"
    root.mkdir()
    _git(root, "init", "-q")
    _git(root, "config", "user.email", "bench@example.com")
    _git(root, "config", "user.name", "bench")
    (root / "README").write_text("x\n")
    _git(root, "add", "README")
    _git(root, "commit", "-q", "-m", "init")
    return root


def _entry(commit: str, metric: str, value: float, workload: str = "ideal") -> dict:
    return {
        "schema": perf.SCHEMA, "commit": commit, "workload": workload, "seed": 0,
        "scale": "large", "metric": metric, "unit": "x", "value": value,
    }


def _series(report: dict, metric: str) -> dict:
    (row,) = [s for s in report["series"] if s["metric"] == metric]
    return row


def test_record_round_trip_and_dedup(repo, tmp_path):
    log = tmp_path / "ideal.log"
    log.write_text(IDEAL_LOG)
    appended = perf.record([log], repo=repo)
    head = _git(repo, "rev-parse", "HEAD")
    assert len(head) == 40
    assert {e["metric"] for e in appended} == {"ev_per_s", "setup_s", "peak_rss_mb", "obs_ratio"}
    for e in appended:
        assert (e["commit"], e["workload"], e["seed"], e["scale"]) == (head, "ideal", 0, "large")
    by_metric = {e["metric"]: e for e in appended}
    assert by_metric["ev_per_s"]["value"] == 836723.0493111744
    assert by_metric["ev_per_s"]["unit"] == "1/s"
    assert perf.load_history(repo / perf.HISTORY_FILE) == appended
    # The ledger is the one file allowed to be dirty; same points: idempotent.
    assert perf.record([log], repo=repo) == []
    assert len(perf.load_history(repo / perf.HISTORY_FILE)) == 4


def test_record_refuses_failed_log(repo, tmp_path):
    for name, text in (
        ("incorrect.log", _log(correct=False, ev_per_s=1.0)),
        ("failed.log", _log(failed=2, ev_per_s=1.0)),
    ):
        log = tmp_path / name
        log.write_text(text)
        with pytest.raises(perf.PerfError, match="not correct"):
            perf.record([log], repo=repo)
    assert not (repo / perf.HISTORY_FILE).exists()


@pytest.mark.parametrize(
    "text",
    [
        "",
        IDEAL_LOG.replace("perfbench ideal seed=0", "bench ideal seed=0"),
        IDEAL_LOG[: IDEAL_LOG.rindex('"unit": "x"')],
        IDEAL_LOG + "trailing line\n",
    ],
    ids=["empty", "no-header", "truncated", "trailing-line"],
)
def test_record_refuses_malformed_log(repo, tmp_path, text):
    good = tmp_path / "good.log"
    good.write_text(IDEAL_LOG)
    bad = tmp_path / "bad.log"
    bad.write_text(text)
    with pytest.raises(perf.PerfError, match="bad.log"):
        perf.record([good, bad], repo=repo)
    assert not (repo / perf.HISTORY_FILE).exists()  # nothing half-recorded


def test_record_refuses_dirty_tree(repo, tmp_path):
    log = tmp_path / "ideal.log"
    log.write_text(IDEAL_LOG)
    (repo / "README").write_text("edited\n")
    with pytest.raises(perf.PerfError, match="uncommitted changes"):
        perf.record([log], repo=repo)
    _git(repo, "checkout", "README")
    (repo / "untracked.py").write_text("")
    with pytest.raises(perf.PerfError, match="untracked.py"):
        perf.record([log], repo=repo)


def test_cli_record_refusal_exits_1(tmp_path, capsys):
    from repro.__main__ import main

    log = tmp_path / "bad.log"
    log.write_text("not a perfbench log\n")
    assert main(["perf", "record", str(log), "--history", str(tmp_path / "h.jsonl")]) == 1
    assert "refused" in capsys.readouterr().err


def test_exact_count_change_flagged_at_zero_bound():
    assert TABLE["sim.cycles"] == ("lower", 0.0)
    entries = [_entry("a", "sim.cycles", 1_000_000.0), _entry("b", "sim.cycles", 999_999.0)]
    row = _series(perf.build_report(entries, TABLE), "sim.cycles")
    # Fewer cycles is "better", but a speed-only change must not move it.
    assert row["status"] == "changed"
    same = [_entry("a", "sim.cycles", 1e6), _entry("b", "sim.cycles", 1e6)]
    assert _series(perf.build_report(same, TABLE), "sim.cycles")["status"] == "ok"


def test_report_flags_synthetic_regression():
    """Past its BENCHMARK.json bound in the bad direction: flagged."""
    assert TABLE["ev_per_s"] == ("higher", 0.2)
    assert TABLE["obs_ratio"] == ("lower", 0.25)
    entries = [
        _entry("a", "ev_per_s", 800_000.0),
        _entry("b", "ev_per_s", 600_000.0),  # -25%
        _entry("a", "obs_ratio", 4.0),
        _entry("b", "obs_ratio", 5.2),  # +30%
        _entry("a", "setup_s", 0.02),
        _entry("b", "setup_s", 0.022),  # +10%, inside 25%
    ]
    report = perf.build_report(entries, TABLE)
    assert report["flagged"] == 2
    assert _series(report, "ev_per_s")["status"] == "worse"
    assert _series(report, "ev_per_s")["delta_pct"] == -25.0
    assert _series(report, "obs_ratio")["status"] == "worse"
    assert _series(report, "setup_s")["status"] == "ok"
    assert "worse" in perf.format_report(report)


def test_improvements_never_flagged():
    entries = [_entry("a", "ev_per_s", 400_000.0), _entry("b", "ev_per_s", 900_000.0)]
    report = perf.build_report(entries, TABLE)
    assert report["flagged"] == 0
    assert _series(report, "ev_per_s")["delta_pct"] == 125.0


def test_record_only_series_never_flagged():
    """Per-layer times have no bound: reported, never judged."""
    entries = [_entry("a", "mem.self_s", 1.0), _entry("b", "mem.self_s", 9.0)]
    report = perf.build_report(entries, TABLE)
    assert _series(report, "mem.self_s")["status"] == "-"
    assert report["flagged"] == 0


def test_trend_accumulates():
    entries = [_entry(f"c{i}", "ev_per_s", v) for i, v in enumerate((3e5, 3.5e5, 4e5))]
    entries.append(_entry("c2", "ev_per_s", 1e5, workload="protocol"))  # own series
    series = {s["workload"]: s for s in perf.build_report(entries, TABLE)["series"]}
    row = series["ideal"]
    assert row["points"] == 3
    assert row["trend"] == [3e5, 3.5e5, 4e5]
    assert row["latest"] == 4e5 and row["latest_commit"] == "c2"
    assert series["protocol"]["status"] == "new"


def test_paired_alternates_order():
    calls = []

    def side(name):
        def run():
            calls.append(name)
            return f"{name}{len(calls)}"
        return run

    pairs = perf.paired(side("a"), side("b"), 4)
    assert calls == ["a", "b", "b", "a", "a", "b", "b", "a"]
    # Results stay in (a, b) order whichever ran first.
    assert pairs == [("a1", "b2"), ("a4", "b3"), ("a5", "b6"), ("a8", "b7")]


def _tree(root: Path) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text("")
    (root / perf.BENCHMARK_FILE).write_text((ROOT / perf.BENCHMARK_FILE).read_text())
    return root


def _fake_runner(head_values: list[dict], base: dict):
    """Base runs always print ``base``; head run ``i`` prints ``head_values[i]``."""
    head_runs = itertools.cycle(head_values)

    def runner(tree, workload):
        values = base if Path(tree).name == "base" else next(head_runs)
        return _log(workload, **values)

    return runner


BASE = {"ev_per_s": 800_000.0, "setup_s": 0.02, "peak_rss_mb": 150.0, "obs_ratio": 4.0}


def test_compare_all_pairs_worse_fails(tmp_path):
    base, head = _tree(tmp_path / "base"), _tree(tmp_path / "head")
    slow = {**BASE, "ev_per_s": 500_000.0}  # -37.5% in every pair
    result = perf.compare(base, head, runner=_fake_runner([slow] * perf.COMPARE_PAIRS, BASE))
    rows = {(r["workload"], r["metric"]): r for r in result["rows"]}
    assert result["failed"] == len(perf.WORKLOADS)
    assert rows["ideal", "ev_per_s"]["status"] == "fail"
    assert rows["ideal", "setup_s"]["status"] == "ok"
    assert "fail" in perf.format_compare(result)


def test_compare_mixed_pairs_unresolved(tmp_path):
    base, head = _tree(tmp_path / "base"), _tree(tmp_path / "head")
    bloated = {**BASE, "obs_ratio": 6.0}  # +50%, past the 25% bound
    result = perf.compare(base, head, runner=_fake_runner([bloated, BASE, bloated], BASE))
    assert perf.COMPARE_PAIRS == 3
    assert result["failed"] == 0
    assert result["unresolved"] == len(perf.WORKLOADS)
    assert {r["status"] for r in result["rows"] if r["metric"] == "obs_ratio"} == {"unresolved"}
    assert "unresolved" in perf.format_compare(result)


def test_compare_aa_passes(tmp_path):
    base, head = _tree(tmp_path / "base"), _tree(tmp_path / "head")
    result = perf.compare(base, head, runner=_fake_runner([BASE], BASE))
    assert result["failed"] == result["unresolved"] == 0


def test_compare_refuses_incorrect_run(tmp_path):
    base, head = _tree(tmp_path / "base"), _tree(tmp_path / "head")

    def runner(tree, workload):
        return _log(workload, failed=1, **BASE)

    with pytest.raises(perf.PerfError, match="not correct"):
        perf.compare(base, head, runner=runner)


def test_run_perfbench_runs_the_tree_script(tmp_path, monkeypatch):
    """The script runs from its own tree root, also for a relative path."""
    tree = _tree(tmp_path / "base")
    (tree / "perfbench" / "run.py").write_text(
        "import os, sys\n"
        "assert os.path.isfile('BENCHMARK.json')\n"
        "if '--seed' not in sys.argv: sys.exit('bad args')\n"
        f"print({_log('ideal', **BASE)!r})\n"
    )
    monkeypatch.chdir(tmp_path)
    run = perf.parse_log(perf.run_perfbench("base", "ideal"))
    assert run["workload"] == "ideal" and run["metrics"]["ev_per_s"][0] == BASE["ev_per_s"]
    (tree / "perfbench" / "run.py").write_text("import sys; sys.exit('boom')\n")
    with pytest.raises(perf.PerfError, match="boom"):
        perf.run_perfbench("base", "ideal")


def test_exact_counts_match_catalog(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, "catalog", raising=False)
    import catalog

    exact = tuple(m.name for m in catalog.PER_LAYER if m.note == "exact")
    assert perf.EXACT_COUNTS == exact


def test_committed_ledger_reports_clean():
    """The repo's ledger holds only perfbench points at full commits,
    covers every workload × end-to-end metric and exact count, and
    reports nothing past its bound."""
    entries = perf.load_history(ROOT / perf.HISTORY_FILE)
    assert entries
    for e in entries:
        assert e["schema"] == perf.SCHEMA
        assert re.fullmatch(r"[0-9a-f]{40}", e["commit"]), e["commit"]
    end_to_end = [m["name"] for m in json.loads((ROOT / perf.BENCHMARK_FILE).read_text())[
        "end_to_end"
    ]]
    covered = {(e["workload"], e["metric"]) for e in entries}
    for workload in perf.WORKLOADS:
        for metric in (*end_to_end, *perf.EXACT_COUNTS):
            assert (workload, metric) in covered
    report = perf.build_report(entries, TABLE)
    assert report["flagged"] == 0, perf.format_report(report)
