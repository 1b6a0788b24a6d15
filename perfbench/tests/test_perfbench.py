"""The benchmark's own tests, at smoke size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import catalog  # noqa: E402
import cells  # noqa: E402
from normalise import Normaliser  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workload import Tally, run_pass  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def _bench(workload: str, trace: int, cwd: Path = ROOT, scale: str = "smoke"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--scale", scale],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", sorted(cells.WORKLOADS))
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(workload, trace, kind):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: v["unit"] for name, v in doc["metrics"].items()} == want
    for name, unit in want.items():
        assert f"\n{name} = " in proc.stdout and f" {unit}\n" in proc.stdout
    values = {name: v["value"] for name, v in doc["metrics"].items()}
    if trace:
        assert values["mem.calls"] > 0 and values["apps.resumes"] > 0
        assert (values["obs.self_s"] > 0) == (workload == "observed")
    else:
        assert all(v > 0 for v in values.values())


def test_catalog_matches_benchmark_json():
    for kind, table in (("end_to_end", catalog.END_TO_END), ("per_layer", catalog.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in SPEC[kind]] == [
            (m.name, m.unit, m.better) for m in table
        ]
    assert [w["name"] for w in SPEC["workloads"]] == list(cells.WORKLOADS)


def test_wrong_expected_digest_counts_as_failed_cell():
    cs = cells.build_cells("ideal", SEED, "smoke")
    expected = cells.expected_digests(cs, "smoke")
    expected[cs[0].ident] = "0" * 64
    tally = Tally()
    samples = run_pass(cs, Normaliser(), expected, tally)
    assert (tally.attempted, tally.failed) == (len(cs) + 1, 1)
    assert cs[0].name not in samples and cs[1].name in samples


@pytest.mark.parametrize("workload", ["protocol", "observed"])
def test_traced_run_reaches_the_untraced_outcome(workload):
    cs = cells.build_cells(workload, SEED, "smoke")
    expected = cells.expected_digests(cs, "smoke")
    tally = Tally()
    traced = run_pass(cs, Normaliser(), expected, tally, SpanRecorder())
    # Every traced execution matched the reference engine's digest.
    assert tally.failed == 0 and len(traced) == tally.attempted
    for sample in traced.values():
        assert sample.trace.calls["mem"] > 0 and sample.trace.calls["sim.wheel"] > 0
    # The wrappers leave the stall-free-hit fast path on.
    assert sum(s.trace.fast for s in traced.values()) > 0


def test_seed_changes_seeded_inputs_only():
    inputs = {
        "Cholesky": lambda a: a.colptr.tolist(),
        "IS": lambda a: a.keys_np.tolist(),
        "Maxflow": lambda a: (a.net.tail.tolist(), a.net.cap.tolist()),
        "Nbody": lambda a: a.bodies.pos.tolist(),
    }

    def draw(app, seed):
        return inputs[app](cells.app_factory(app, seed, "smoke")())

    for app in inputs:
        assert (draw(app, 1) != draw(app, 2)) == (app in cells.SEEDED_APPS)


def test_exits_nonzero_without_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _bench("ideal", 0, cwd=tmp_path, scale="large")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
