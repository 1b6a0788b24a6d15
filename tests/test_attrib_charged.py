"""Attribution reports carry only the cells that charge overhead.

A schema-2 report emits a data, sync or stall cell only when its read
stall, write stall or buffer flush is nonzero, and folds the event
counts of every other cell into one ``(no overhead)`` row per dimension.
The differential mode reads a missing cell as a zero cell and its rows
carry no counts, so the diff documents are pinned byte for byte to the
ones recorded when every cell was still emitted (schema 1), and a
schema-1 report still loads and diffs to the same document.

Re-record the digests after an intentional change to the diff document
with ``PYTHONPATH=src python -m tests.test_attrib_charged``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.apps.base import run_machine
from repro.apps.presets import smoke_scale
from repro.config import MachineConfig
from repro.obs.attrib import (
    DIMENSIONS,
    OVERHEAD_CATEGORIES,
    SCHEMA,
    UNCHARGED_ROW,
    AttributionCollector,
    build_report,
    diff_reports,
    load_report,
)

#: The Maxflow/RCinv smoke-scale report as schema 1 wrote it (every
#: cell, ``links`` cut to five rows).
SCHEMA1_REPORT = Path(__file__).parent / "fixtures" / "attrib_schema1_maxflow_rcinv.json"

SYSTEMS = ("RCinv", "RCupd", "z-mc")

#: (app, system A, system B) -> SHA-256 of ``json.dumps(diff_reports(a, b))``
#: at smoke scale.
DIFF_DIGESTS = {
    ("Maxflow", "RCinv", "RCupd"):
        "a34c27b1a5123c15e4f5bf879e146e12f8dd39ccb3d87e89beb6472ed69c316d",
    ("IS", "RCinv", "z-mc"):
        "87f25c36c4ef4bcbfdb0a2ca2c733aecabc06a297d4a54a82e0d502887fb63e8",
    ("IS", "RCinv", "RCupd"):
        "2f40c0a91145baca52d783367c5d8f02b513b00417af297791f483c24329a9ac",
}

_RUNS: dict[tuple[str, str], tuple[dict, AttributionCollector]] = {}


def _run(app: str, system: str) -> tuple[dict, AttributionCollector]:
    """(report, collector) of one smoke-scale cell, run once per session."""
    key = (app, system)
    if key not in _RUNS:
        machine, result, collector = run_machine(
            smoke_scale()[app][0](), system, MachineConfig(), verify=False,
            attach=(AttributionCollector.attach,),
        )
        report = build_report(
            collector, result, app=app, system=system, scale="smoke",
            sync_names=machine.sync.sync_names(),
        )
        _RUNS[key] = report, collector
    return _RUNS[key]


def _report(app: str, system: str) -> dict:
    return _run(app, system)[0]


def _overhead(entry: dict) -> float:
    return sum(entry[cat] for cat in OVERHEAD_CATEGORIES)


def _stall_ops(collector: AttributionCollector) -> int:
    """``Stall`` ops the collector folded (charged or not)."""
    return sum(collector._count[row] for row in collector._stall.values())


def _diff_digest(app: str, a: str, b: str) -> str:
    diff = diff_reports(_report(app, a), _report(app, b))
    return hashlib.sha256(json.dumps(diff).encode()).hexdigest()


@pytest.mark.parametrize("pair", sorted(DIFF_DIGESTS), ids="-".join)
def test_diff_documents_match_pinned_digests(pair):
    assert _diff_digest(*pair) == DIFF_DIGESTS[pair]


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("app", sorted(smoke_scale()))
def test_report_emits_charged_cells_and_closes_counts(app, system):
    """Every emitted cell and row carries overhead, except the remainder
    row; each dimension's counts add up to every folded event."""
    report, collector = _run(app, system)
    assert report["schema"] == SCHEMA
    assert all(_overhead(cell) > 0.0 for cell in report["cells"])
    events = report["counts"]["accesses"] + report["counts"]["sync_events"]
    events += _stall_ops(collector)
    folded = report["counts"]["data_cells"] + report["counts"]["sync_cells"]
    dropped = folded + len(collector._stall) - len(report["cells"])
    for dim in DIMENSIONS:
        rows = report["dims"][dim]
        assert sum(row["count"] for row in rows) == events, dim
        keys = [row["key"] for row in rows]
        assert keys.count(UNCHARGED_ROW) == (1 if dropped else 0), dim
        for row in rows:
            if row["key"] == UNCHARGED_ROW:
                assert row["count"] > 0
                assert _overhead(row) == row["overhead"] == row["share_pct"] == 0.0
            else:
                assert row["overhead"] > 0.0, (dim, row["key"])


def test_z_machine_report_is_one_remainder_row_per_dimension():
    """The z-machine charges no overhead at all: no cell is emitted and
    every dimension is the remainder row alone."""
    report, collector = _run("IS", "z-mc")
    assert report["cells"] == []
    assert report["counts"]["data_cells"] > 100
    for dim in DIMENSIONS:
        assert [row["key"] for row in report["dims"][dim]] == [UNCHARGED_ROW]
        assert report["dims"][dim][0]["count"] == (
            collector.accesses + collector.sync_events + _stall_ops(collector)
        )


def test_multithreaded_report_closes_counts_with_stall_ops():
    """Switch-on-miss contexts charge ``Stall`` ops; the counts still
    close over accesses, sync events and those ops."""
    from .test_multithread import scan_machine

    machine, worker, *_ = scan_machine(contexts_per_proc=2)
    collector = AttributionCollector.attach(machine)
    report = build_report(collector, machine.run(worker))
    stall_ops = _stall_ops(collector)
    assert stall_ops > 0
    for dim in DIMENSIONS:
        assert sum(row["count"] for row in report["dims"][dim]) == (
            collector.accesses + collector.sync_events + stall_ops
        )


def test_schema1_report_loads_and_diffs_alike(tmp_path):
    """A schema-1 report (every cell emitted) diffs against schema 2 as
    its schema-2 twin does: a missing cell is a zero cell."""
    old = load_report(SCHEMA1_REPORT)
    assert old["schema"] == 1
    new = _report("Maxflow", "RCinv")
    assert {k: old[k] for k in ("totals", "attributed", "residual", "exact", "counts")} == {
        k: new[k] for k in ("totals", "attributed", "residual", "exact", "counts")
    }
    assert len(old["cells"]) > len(new["cells"])
    self_diff = diff_reports(old, new)
    assert self_diff["gap"] == 0.0
    assert all(self_diff["dims"][dim] == [] for dim in DIMENSIONS)
    assert self_diff["hotspots"] == []
    diff = diff_reports(old, _report("Maxflow", "RCupd"))
    digest = hashlib.sha256(json.dumps(diff).encode()).hexdigest()
    assert digest == DIFF_DIGESTS[("Maxflow", "RCinv", "RCupd")]
    future = tmp_path / "future.json"
    future.write_text(json.dumps({**new, "schema": SCHEMA + 1}))
    with pytest.raises(ValueError, match="schema"):
        load_report(future)


if __name__ == "__main__":  # pragma: no cover - manual tool
    print(json.dumps({"-".join(p): _diff_digest(*p) for p in DIFF_DIGESTS}, indent=4))
