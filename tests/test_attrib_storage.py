"""How the attribution collector stores what it folds.

A data access is counted in its phase's dense typed counter and gets a
row only when it charges a stall; sync and ``Stall``-op cells always
get a row.  The report must read exactly what a plain dict-per-cell
fold reads (:func:`tests.oracles.reference_attribution`), including
the events a data cell saw before its first charge, and the storage
must stay typed and bounded by the overhead it explains.
"""

from __future__ import annotations

import sys
from array import array

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.apps.base import run_machine
from repro.apps.presets import smoke_scale
from repro.config import MachineConfig
from repro.obs.attrib import DIMENSIONS, UNCHARGED_ROW, AttributionCollector, build_report
from repro.sim.stats import AccessResult, ProcStats, SimResult, SyncPoint

from .oracles import attributed_totals, reference_attribution

NPROCS = 3
LINE = 4


class _StubMem:
    line_size = LINE

    @staticmethod
    def home_of(block):
        return block % NPROCS


_STALLS = st.sampled_from([0.0, 0.0, 0.0, 0.5, 3.0])
_SYNC_POINTS = st.one_of(
    st.builds(SyncPoint, st.just("lock"), st.integers(0, 2)),
    st.builds(SyncPoint, st.just("barrier"), st.integers(0, 1)),
    st.just(SyncPoint("fence", -1)),
    st.builds(SyncPoint, st.sampled_from(["flag_set", "flag_wait"]), st.integers(0, 1)),
)
_PROCS = st.integers(0, NPROCS - 1)
_CALLS = st.one_of(
    st.tuples(
        st.just("access"), _PROCS, st.sampled_from(["read", "write", "read_nb"]),
        st.integers(0, 47), _STALLS, _STALLS, _STALLS,
    ),
    st.tuples(
        st.just("access"), _PROCS, st.sampled_from(["acquire", "release"]),
        _SYNC_POINTS, _STALLS, _STALLS, _STALLS,
    ),
    st.tuples(
        st.just("stall"), _PROCS, st.sampled_from([0.5, 2.0]),
        st.sampled_from(["read", "write", "flush", "sync"]),
    ),
    st.tuples(st.just("phase"), _PROCS, st.sampled_from(["a", "b", "c"])),
)


@st.composite
def _streams(draw):
    """A call stream with a data cell touched twice without a stall and
    then charged, at a drawn position."""
    calls = draw(st.lists(_CALLS, max_size=80))
    proc, addr = draw(_PROCS), draw(st.integers(0, 47))
    late = [
        ("access", proc, "write", addr, 0.0, 0.0, 0.0),
        ("access", proc, "read_nb", addr, 2.5, 0.0, 0.0),
        ("access", proc, "read", addr, 1.5, 0.0, 0.0),
    ]
    at = draw(st.integers(0, len(calls)))
    return calls[:at] + late + calls[at:]


def _report(calls) -> dict:
    """Feed ``calls`` to a collector by hand; returns its report."""
    collector = AttributionCollector(_StubMem(), NPROCS)
    for t, call in enumerate(calls):
        tag, proc = call[0], call[1]
        if tag == "phase":
            collector.on_phase(proc, float(t), call[2])
        elif tag == "stall":
            collector.on_stall(proc, float(t), call[2], call[3])
        else:
            _, _, kind, target, rs, ws, bf = call
            res = AccessResult(t + rs + ws + bf, read_stall=rs, write_stall=ws, buffer_flush=bf)
            collector.on_access(proc, kind, target, float(t), res, 0.0)
    totals = attributed_totals(collector)
    procs = [
        ProcStats(
            read_stall=totals["read_stall"][p], write_stall=totals["write_stall"][p],
            buffer_flush=totals["buffer_flush"][p],
        )
        for p in range(NPROCS)
    ]
    return build_report(collector, SimResult(float(len(calls)), procs))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_streams())
@example([
    ("access", 0, "read", 9, 0.0, 0.0, 0.0),
    ("access", 0, "read", 10, 0.0, 0.0, 0.0),
    ("access", 0, "write", 8, 0.0, 3.0, 0.0),
    ("phase", 1, "b"),
    ("access", 1, "acquire", SyncPoint("lock", 0), 0.0, 0.0, 0.0),
    ("access", 1, "acquire", SyncPoint("lock", 0), 0.5, 0.0, 0.0),
])
def test_report_matches_dict_per_cell_reference(calls):
    """Every emitted cell, dimension row, ``(no overhead)`` count and
    ``data_cells`` equals the reference fold's (stalls are multiples of
    0.5, so sums in any order are exact)."""
    report = _report(calls)
    ref = reference_attribution(calls, LINE, _StubMem.home_of)
    assert report["cells"] == ref["cells"]
    for dim in DIMENSIONS:
        rows = {
            row["key"]: [row["read_stall"], row["write_stall"], row["buffer_flush"], row["count"]]
            for row in report["dims"][dim]
        }
        assert rows == ref["dims"][dim], dim
    for rows in report["dims"].values():
        uncharged = [row["count"] for row in rows if row["key"] == UNCHARGED_ROW]
        assert uncharged == ([ref["uncharged"]] if ref["uncharged"] else [])
    assert report["counts"]["data_cells"] == ref["data_cells"]


def _held_bytes(collector: AttributionCollector) -> tuple[int, int, int]:
    """(counter bytes, row bytes, bytes of the dicts indexing rows)."""
    counters = sum(t.itemsize * len(t) for t in collector._touches)
    rows = sum(column.itemsize * len(column) for column in collector._columns)
    index = sum(map(sys.getsizeof, (*collector._data, collector._sync, collector._stall)))
    return counters, rows, index


@pytest.mark.parametrize("system", ["z-mc", "RCinv"])
def test_storage_is_typed_and_bounded_by_charged_rows(system):
    """On IS, every column and counter is a typed array, no data row
    exists for a cell that charged nothing, each phase counter ends at
    the highest block it touched, and the collector holds 4 B per
    counter slot plus a fixed amount per row."""
    _, result, collector = run_machine(
        smoke_scale()["IS"][0](), system, MachineConfig(), verify=False,
        attach=(AttributionCollector.attach,),
    )
    report = build_report(collector, result)
    store = (*collector._columns, *collector._touches)
    assert all(isinstance(column, array) for column in store)
    assert all(t.itemsize == 4 and (not t or t[-1]) for t in collector._touches)
    assert sum(len(t) - t.count(0) for t in collector._touches) == report["counts"]["data_cells"]
    overhead = collector._columns[:3]
    for cells in collector._data:
        for row in cells.values():
            assert any(column[row] for column in overhead)
    data_rows = sum(map(len, collector._data))
    if system == "z-mc":
        assert data_rows == 0
    else:
        assert 0 < data_rows < report["counts"]["data_cells"]
    nrows = len(collector._count)
    assert nrows == data_rows + len(collector._sync) + len(collector._stall)
    assert {len(column) for column in collector._columns} == {nrows}
    counters, rows, index = _held_bytes(collector)
    slots = sum(map(len, collector._touches))
    assert counters == 4 * slots
    assert rows == 28 * nrows
    # A dict entry and its share of the table, plus an empty dict per
    # phase.
    assert index <= 160 * nrows + 128 * (len(collector._data) + 2)
