"""``repro perf`` — the perfbench ledger and the A/B speed gate.

perfbench (``perfbench/run.py``, declared by ``BENCHMARK.json``) is the
one benchmark: host-normalised, split per layer and gated on
correctness.  This module keeps its history and compares two trees
with it:

* :func:`record` reads saved ``perfbench/run.py`` stdout and appends one
  ledger point per workload × metric to ``benchmarks/history.jsonl``,
  keyed by the full commit of a clean tree;
* :func:`build_report` gives each series' trend and its latest delta,
  judged by ``BENCHMARK.json``'s ``better``/``bound``; the
  :data:`EXACT_COUNTS` get a 0% bound, so a commit that changes
  simulated results stands out;
* :func:`compare` runs two trees' perfbench in interleaved
  :func:`paired` runs and fails a metric only when every pair is worse
  than its bound.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
import time
from collections.abc import Callable
from functools import partial
from pathlib import Path
from statistics import median
from typing import Any, TypeVar

#: Default ledger location, next to the paper-scale benchmarks.
HISTORY_FILE = "benchmarks/history.jsonl"

#: The benchmark declaration that holds every metric's direction and bound.
BENCHMARK_FILE = "BENCHMARK.json"

#: Ledger entry format; one entry is one perfbench metric at one commit.
SCHEMA = 2

#: Simulated counts a traced (``--trace 1``) perfbench run reports.  A
#: speed-only change must leave every one of them unchanged.
EXACT_COUNTS = (
    "sim.events",
    "sim.cycles",
    "mem.read_misses",
    "mem.read_miss_ratio",
    "network.messages",
    "network.bytes",
    "stall.read_cyc",
    "stall.write_cyc",
    "stall.flush_cyc",
    "sync.wait_cyc",
)

#: perfbench workloads, all compared by :func:`compare`.
WORKLOADS = ("protocol", "ideal", "observed")

#: :func:`compare` runs this many interleaved pairs per workload ...
COMPARE_PAIRS = 3
#: ... of this many seconds each (untraced, seed 0, large inputs).
COMPARE_SECONDS = 5

_HEADER = re.compile(r"^perfbench (\S+) seed=(-?\d+) scale=(\S+):", re.MULTILINE)

T = TypeVar("T")
U = TypeVar("U")


class PerfError(Exception):
    """A log, tree or run that ``repro perf`` refuses to use."""


def paired(a: Callable[[], T], b: Callable[[], U], n: int) -> list[tuple[T, U]]:
    """Run ``a`` and ``b`` back to back ``n`` times: ``[(a(), b()), ...]``.

    Odd pairs run ``b`` first, so warm-up and drift land on both sides.
    """
    out = []
    for i in range(n):
        if i % 2:
            y = b()
            x = a()
        else:
            x = a()
            y = b()
        out.append((x, y))
    return out


def parse_log(text: str, source: str = "log") -> dict:
    """Workload, seed, scale and metrics of one perfbench stdout.

    Raises :class:`PerfError` for a malformed log and for a run whose
    last line reports ``correct`` false or ``failed`` > 0.
    """
    header = _HEADER.search(text)
    lines = text.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {
            name: (float(m["value"]), str(m["unit"])) for name, m in result["metrics"].items()
        }
        correct, failed = result["correct"], int(result["failed"])
    except (IndexError, ValueError, TypeError, KeyError, AttributeError):
        raise PerfError(f"{source}: last line is not a perfbench result object") from None
    if header is None:
        raise PerfError(f"{source}: no 'perfbench <workload> seed=N scale=S:' header line")
    if correct is not True or failed > 0:
        raise PerfError(f"{source}: run not correct (correct={correct}, failed={failed})")
    return {
        "workload": header.group(1),
        "seed": int(header.group(2)),
        "scale": header.group(3),
        "metrics": metrics,
    }


def _git(repo: str | os.PathLike, *args: str) -> str:
    try:
        out = subprocess.run(
            ["git", *args], cwd=repo, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError) as exc:
        raise PerfError(f"git {args[0]} failed: {exc}") from None
    if out.returncode != 0:
        raise PerfError(f"git {args[0]} failed in {repo}: {out.stderr.strip()}")
    return out.stdout.strip()


def clean_head(repo: str | os.PathLike = ".", history: str | os.PathLike = HISTORY_FILE) -> str:
    """Full HEAD commit of ``repo``; refuses a tree dirty apart from the ledger."""
    top = Path(_git(repo, "rev-parse", "--show-toplevel")).resolve()
    ledger = os.path.relpath(Path(repo, history).resolve(), top)
    dirty = [
        line[3:]
        for line in _git(repo, "status", "--porcelain", "--untracked-files=all").splitlines()
        if line[3:] != ledger
    ]
    if dirty:
        raise PerfError(
            f"{top} has uncommitted changes ({', '.join(dirty[:5])}); "
            "commit them so the points name the code they measured"
        )
    return _git(repo, "rev-parse", "HEAD")


def load_history(history: str | os.PathLike = HISTORY_FILE) -> list[dict]:
    """All ledger entries, in file (= chronological append) order."""
    path = Path(history)
    if not path.is_file():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def series_key(entry: dict) -> tuple:
    """Ledger entries are only comparable within this key."""
    return (entry["workload"], entry["seed"], entry["scale"], entry["metric"])


def record(
    logs: list[str | os.PathLike],
    history: str | os.PathLike = HISTORY_FILE,
    repo: str | os.PathLike = ".",
) -> list[dict]:
    """Append every metric of the perfbench logs to the ledger.

    ``history`` is relative to ``repo``, whose clean HEAD names the
    points.  Any refused log refuses the whole call, so the ledger never
    holds half a record.  Points already in the ledger (same series,
    commit and value) are skipped.  Returns the entries appended.
    """
    commit = clean_head(repo, history)
    runs = []
    for log in logs:
        try:
            text = Path(log).read_text()
        except OSError as exc:
            raise PerfError(f"{log}: {exc.strerror}") from None
        runs.append(parse_log(text, str(log)))
    ledger = Path(repo, history)
    seen = {(series_key(e), e["commit"], e["value"]) for e in load_history(ledger)}
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    appended = []
    for run in runs:
        for metric, (value, unit) in run["metrics"].items():
            entry = {
                "schema": SCHEMA,
                "commit": commit,
                "recorded_at": stamp,
                "host": platform.node(),
                "cpu_count": os.cpu_count(),
                "workload": run["workload"],
                "seed": run["seed"],
                "scale": run["scale"],
                "metric": metric,
                "unit": unit,
                "value": value,
            }
            key = (series_key(entry), commit, value)
            if key not in seen:
                seen.add(key)
                appended.append(entry)
    if appended:
        ledger.parent.mkdir(parents=True, exist_ok=True)
        with open(ledger, "a") as fh:
            for entry in appended:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return appended


def metric_table(
    benchmark: str | os.PathLike = BENCHMARK_FILE,
) -> dict[str, tuple[str, float | None]]:
    """metric -> (better, bound) from ``BENCHMARK.json``.

    End-to-end metrics carry their declared bound, exact counts 0, and
    the other per-layer metrics none (reported, never judged).
    """
    doc = json.loads(Path(benchmark).read_text())
    table: dict[str, tuple[str, float | None]] = {}
    for m in doc["per_layer"]:
        table[m["name"]] = (m["better"], 0.0 if m["name"] in EXACT_COUNTS else None)
    for m in doc["end_to_end"]:
        table[m["name"]] = (m["better"], float(m["bound"]))
    return table


def worse_by(base: float, new: float, better: str) -> float:
    """Relative change of ``new`` against ``base``, positive when worse."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return -change if better == "higher" else change


def build_report(entries: list[dict], table: dict[str, tuple[str, float | None]]) -> dict:
    """Each series' trend and the delta of its latest point to the one before.

    A series is ``worse`` when that delta passes its bound in the bad
    direction; an exact count is ``changed`` when it moves at all.
    """
    by_series: dict[tuple, list[dict]] = {}
    for entry in entries:
        by_series.setdefault(series_key(entry), []).append(entry)
    series = []
    for key in sorted(by_series):
        points = by_series[key]
        metric = key[3]
        better, bound = table.get(metric, ("lower", None))
        latest = points[-1]["value"]
        row: dict[str, Any] = {
            "workload": key[0],
            "seed": key[1],
            "scale": key[2],
            "metric": metric,
            "better": better,
            "bound": bound,
            "points": len(points),
            "trend": [p["value"] for p in points[-8:]],
            "latest": latest,
            "latest_commit": points[-1]["commit"],
            "delta_pct": None,
            "status": "new",
        }
        if len(points) > 1:
            previous = points[-2]["value"]
            if previous:
                row["delta_pct"] = round(100.0 * (latest - previous) / abs(previous), 2)
            if bound is None:
                row["status"] = "-"
            elif metric in EXACT_COUNTS:
                row["status"] = "changed" if latest != previous else "ok"
            else:
                row["status"] = "worse" if worse_by(previous, latest, better) > bound else "ok"
        series.append(row)
    flagged = sum(1 for s in series if s["status"] in ("worse", "changed"))
    return {"schema": SCHEMA, "report": "perf-trajectory", "series": series, "flagged": flagged}


def _num(v: float) -> str:
    return f"{v:,.1f}" if abs(v) >= 10 else f"{v:.4g}"


def format_report(report: dict) -> str:
    """Human-readable perf trajectory table."""
    lines = [
        f"perf trajectory: {len(report['series'])} series, {report['flagged']} flagged",
        f"{'workload':>9s} {'metric':>20s} {'latest':>12s} {'delta':>8s} {'bound':>6s}  "
        "status (points)",
    ]
    for s in report["series"]:
        delta = f"{s['delta_pct']:+.1f}%" if s["delta_pct"] is not None else "-"
        bound = f"{s['bound']:.0%}" if s["bound"] is not None else "-"
        lines.append(
            f"{s['workload']:>9s} {s['metric']:>20s} {_num(s['latest']):>12s} "
            f"{delta:>8s} {bound:>6s}  {s['status']} ({s['points']}) "
            f"trend {' '.join(_num(v) for v in s['trend'])}"
        )
    return "\n".join(lines)


def run_perfbench(tree: str | os.PathLike, workload: str) -> str:
    """Stdout of one untraced seed-0 ``COMPARE_SECONDS`` perfbench run in ``tree``."""
    script = Path(tree, "perfbench", "run.py").resolve()
    cmd = [
        sys.executable, str(script), "--workload", workload, "--seed", "0",
        "--seconds", str(COMPARE_SECONDS), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        raise PerfError(
            f"{script} --workload {workload} exited {out.returncode}: "
            f"{out.stderr.strip()[-500:]}"
        )
    return out.stdout


def verdict(base: list[float], head: list[float], better: str, bound: float) -> tuple[str, list]:
    """``ok``, ``unresolved`` or ``fail`` for one metric's paired values.

    ``fail`` needs every pair worse than ``bound``; a head median past
    the bound off the base median, with pairs that disagree, is
    ``unresolved``.
    """
    worse = [worse_by(b, h, better) for b, h in zip(base, head)]
    if all(w > bound for w in worse):
        return "fail", worse
    if worse_by(median(base), median(head), better) > bound:
        return "unresolved", worse
    return "ok", worse


def compare(
    base_dir: str | os.PathLike,
    head_dir: str | os.PathLike = ".",
    runner: Callable[[str | os.PathLike, str], str] = run_perfbench,
) -> dict:
    """Interleaved perfbench A/B of ``head_dir`` against ``base_dir``.

    Every workload runs :data:`COMPARE_PAIRS` :func:`paired` base/head
    runs; each end-to-end metric of ``head_dir``'s ``BENCHMARK.json`` is
    judged by :func:`verdict`.  Exact counts are not compared: the
    perfbench correctness gate already pins them per cell.
    """
    for tree in (base_dir, head_dir):
        if not Path(tree, "perfbench", "run.py").is_file():
            raise PerfError(f"{tree}: no perfbench/run.py")
    doc = json.loads(Path(head_dir, BENCHMARK_FILE).read_text())
    rows = []
    for workload in WORKLOADS:
        pairs = paired(
            partial(runner, base_dir, workload), partial(runner, head_dir, workload), COMPARE_PAIRS
        )
        runs = [
            (parse_log(a, f"{base_dir} {workload}"), parse_log(b, f"{head_dir} {workload}"))
            for a, b in pairs
        ]
        for m in doc["end_to_end"]:
            base = [a["metrics"][m["name"]][0] for a, _ in runs]
            head = [b["metrics"][m["name"]][0] for _, b in runs]
            status, worse = verdict(base, head, m["better"], float(m["bound"]))
            rows.append({
                "workload": workload,
                "metric": m["name"],
                "bound": float(m["bound"]),
                "base": base,
                "head": head,
                "worse": worse,
                "status": status,
            })
    return {
        "pairs": COMPARE_PAIRS,
        "seconds": COMPARE_SECONDS,
        "rows": rows,
        "failed": sum(1 for r in rows if r["status"] == "fail"),
        "unresolved": sum(1 for r in rows if r["status"] == "unresolved"),
    }


def format_compare(result: dict) -> str:
    """Human-readable A/B verdict table."""
    lines = [
        f"perf compare: {result['pairs']} interleaved pairs of {result['seconds']} s runs "
        f"per workload; {result['failed']} failed, {result['unresolved']} unresolved",
        f"{'workload':>9s} {'metric':>12s} {'base med':>12s} {'head med':>12s} "
        f"{'bound':>6s}  worse per pair -> verdict",
    ]
    for r in result["rows"]:
        worse = " ".join(f"{100 * w:+.1f}%" for w in r["worse"])
        lines.append(
            f"{r['workload']:>9s} {r['metric']:>12s} {_num(median(r['base'])):>12s} "
            f"{_num(median(r['head'])):>12s} {r['bound']:>6.0%}  {worse} -> {r['status']}"
        )
    return "\n".join(lines)


__all__ = [
    "BENCHMARK_FILE",
    "COMPARE_PAIRS",
    "COMPARE_SECONDS",
    "EXACT_COUNTS",
    "HISTORY_FILE",
    "PerfError",
    "WORKLOADS",
    "build_report",
    "clean_head",
    "compare",
    "format_compare",
    "format_report",
    "load_history",
    "metric_table",
    "paired",
    "parse_log",
    "record",
    "run_perfbench",
    "series_key",
    "verdict",
    "worse_by",
]
