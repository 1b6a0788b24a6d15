"""Exact overhead attribution: *which* data, sync objects, phases and
home nodes every stall cycle is paid for.

The paper's headline numbers decompose execution time into read-stall /
write-stall / buffer-flush totals per processor; this module explains
them.  :class:`AttributionCollector` is a view of the engine's event
log (see :class:`repro.sim.trace.EventLog`) that charges every overhead
cycle to a *cell* — the cross product of the current application phase
and either an address block (data accesses), a sync object (acquire /
release / barrier / fence) or the ``Stall`` ops of latency-tolerant
code — while
maintaining per-processor per-category accumulators with the **same
addends in the same order** as the engine's ``ProcStats``, so the
attributed totals equal the :class:`repro.sim.stats.SimResult` totals
bit-for-bit.

:func:`build_report` folds the cells into four ranked dimensions at
once:

* **block** — named :class:`~repro.runtime.sharedmem.SharedArray`
  region (``excess[0:8]``), plus one ``(sync ops)`` row, so the
  dimension partitions the attributed overhead;
* **sync** — lock / barrier / flag / fence object via the
  ``sync_kind``/``sync_id`` plumbing, labelled like the static analyzer
  (:func:`repro.analysis.naming.sync_label`), plus a ``(data)`` row;
* **phase** — the application ``ctx.phase(...)`` markers (cycles before
  the first marker land in ``(startup)``);
* **home** — the directory's addr→home mapping, plus a route-weighted
  per-link load derived from the requester→home pairs of stalled
  accesses.

Block, sync and home also get a ``(stall ops)`` row when the run charged
``Stall`` cycles (:mod:`repro.runtime.multithread` does).

A report costs what the overhead it explains costs: it emits only the
cells that charged a nonzero read stall, write stall or buffer flush,
and each dimension folds the events of all other cells into one
``(no overhead)`` row.  A z-machine report is that one row per
dimension, however many words the run touched.

The collector stores cells by the same rule.  Each phase counts its
data accesses in one dense ``array('I')`` indexed by block; a data cell
gets a row only when an access charges it a stall, while every sync and
``Stall``-op cell gets one.  A row is four typed columns.  So a
collector holds 4 B per (phase, block) slot up to the highest block the
phase touched, plus one typed row per charged, sync or stall cell, and
a charged cell's events are its counter slot, including the accesses
before its first charge.

:func:`diff_reports` aligns two reports on system-independent keys
(array names, sync labels, phase labels — block numbering differs
between the z-machine's one-word lines and the real systems' 32-byte
lines) and decomposes the overhead *delta*, which is what makes Table 1
and the scenario reports explainable: "RCinv pays the gap on ``excess``
inside the ``discharge`` phase" is a sentence this module can back with
cycles.
"""

from __future__ import annotations

import gc
import json
import os
from array import array
from collections.abc import Iterable, Iterator
from functools import reduce, wraps
from itertools import chain, compress, count
from math import fsum
from operator import add, itemgetter
from pathlib import Path

from ..analysis.naming import sync_label
from ..sim.stats import SyncPoint
from ..sim.trace import BUSY, PHASE, STALL, WAIT, LogView

#: JSON schema version of attribution reports.  Schema 2 emits only the
#: cells that charged overhead; schema 1 emitted every cell.  Both load
#: and diff alike, since a diff reads a missing cell as a zero cell.
SCHEMA = 2
READABLE_SCHEMAS = (1, 2)

#: JSON schema version of attribution diff documents.
DIFF_SCHEMA = 1

#: Document kind tag (validated by :func:`load_report` / ``repro diff``).
REPORT_KIND = "attribution"
DIFF_KIND = "attribution-diff"

#: Overhead categories attributed (the paper's stall decomposition).
OVERHEAD_CATEGORIES = ("read_stall", "write_stall", "buffer_flush")

#: The four attribution dimensions, in display order.
DIMENSIONS = ("block", "sync", "phase", "home")

#: Pseudo-row keys that close the block/sync/home dimensions into
#: partitions of the attributed overhead.
SYNC_ROW = "(sync ops)"
DATA_ROW = "(data)"
STALL_ROW = "(stall ops)"
#: Pseudo-row key that holds, in every dimension, the events of the
#: cells a report leaves out because they charged no overhead.
UNCHARGED_ROW = "(no overhead)"

#: ``Stall`` op category -> index into the overhead categories (the
#: ``"sync"`` category is sync wait, not overhead).
_STALL_INDEX = {"read": 0, "write": 1, "flush": 2}

#: Phase label charged before the first ``ctx.phase(...)`` marker.
STARTUP_PHASE = "(startup)"

#: Residual beyond which a report is flagged inexact (same discipline as
#: the interval-metrics acceptance tests).
EXACT_TOLERANCE = 1e-6


class AttributionCollector(LogView):
    """Event-log view charging overhead cycles to cells::

        machine, result, collector = run_machine(
            app, "RCinv", cfg, attach=(AttributionCollector.attach,)
        )
        report = build_report(collector, result, app="IS", system="RCinv")

    A fold over the engine's :class:`~repro.sim.trace.EventLog`: each
    row's cycles land in its cell and in the per-processor accumulators
    in arrival order, so the sums are the live ones.
    """

    def __init__(self, memsys, nprocs: int, shm=None):
        #: The observed memory system, read for its line size and
        #: addr→home map, and at report time for its directory and
        #: configuration.
        self.memsys = memsys
        self.nprocs = nprocs
        #: Optional :class:`repro.runtime.sharedmem.SharedMemory`; when
        #: set, block cells resolve to array names in reports.
        self.shm = shm
        self._line = memsys.line_size
        self._home_of = getattr(memsys, "home_of", None)
        # Phase interning: labels -> small ints, one current id per proc.
        self._phase_names: list[str] = [STARTUP_PHASE]
        self._phase_ids: dict[str, int] = {STARTUP_PHASE: 0}
        self._cur = [0] * nprocs
        #: (time, proc, label) for every phase marker, in issue order.
        self._phase_marks: list[tuple[float, int, str]] = []
        #: Per phase, the data accesses to each block: a dense counter
        #: indexed by block, as long as the highest block the phase
        #: touched.  A nonzero slot is a data cell.
        self._touches: list[array] = [array("I")]
        #: Per processor, the ``_touches`` entry of its current phase.
        self._cur_touches = [self._touches[0]] * nprocs
        #: The charged data cells and every sync and stall cell, one row
        #: each in four typed columns: read_stall, write_stall,
        #: buffer_flush and events (sync or Stall ops; a data row's
        #: accesses are its ``_touches`` slot and this stays 0).
        self._columns: tuple[array, array, array, array] = (
            array("d"), array("d"), array("d"), array("I"),
        )
        self._read_stall, self._write_stall, self._buffer_flush, self._count = self._columns
        #: phase_id -> {block: row}, the data cells that charged a stall.
        self._data: list[dict[int, int]] = [{}]
        #: Per processor, the ``_data`` entry of its current phase.
        self._rows = [self._data[0]] * nprocs
        #: (phase_id, sync_kind, sync_id) -> row
        self._sync: dict[tuple[int, str, int], int] = {}
        #: phase_id -> row of the Stall ops
        self._stall: dict[int, int] = {}
        #: block -> home node, resolved once per stalled block: the
        #: blocks a report emits.
        self._homes: dict[int, int] = {}
        #: (requester, home) -> stall cycles of stalled data accesses —
        #: feeds the derived per-link load, not the exact-sum contract.
        self._pairs: dict[tuple[int, int], float] = {}
        #: Per-processor [read_stall, write_stall, buffer_flush] updated
        #: with the engine's exact addends in the engine's order; zero
        #: addends are skipped (``x + 0.0 == x`` for these non-negative
        #: accumulators), so each entry is bit-identical to ProcStats.
        self._acc = [[0.0, 0.0, 0.0] for _ in range(nprocs)]
        self._accesses = 0
        self._sync_events = 0
        super().__init__()

    # -- construction ---------------------------------------------------
    @classmethod
    def attach(cls, machine) -> AttributionCollector:
        """Fold a collector from a Machine's engine event log."""
        collector = cls(
            machine.engine.memsys,
            machine.config.nprocs,
            shm=getattr(machine, "shm", None),
        )
        return collector._share(machine)

    # -- fold -------------------------------------------------------------
    def _new_row(self) -> int:
        """Append an empty cell; returns its row."""
        self._read_stall.append(0.0)
        self._write_stall.append(0.0)
        self._buffer_flush.append(0.0)
        self._count.append(0)
        return len(self._count) - 1

    def _fold(self, rows: list[tuple]) -> None:
        """Charge ``rows`` to their cells, in order.

        A row switches its processor's phase (a marker), charges a
        ``Stall`` op, or counts an access in its data or sync cell and
        charges it the stalls the engine charged (none for a
        non-blocking read).
        """
        line = self._line
        home_of = self._home_of
        homes = self._homes
        pairs = self._pairs
        cur = self._cur
        cur_touches = self._cur_touches
        data_rows = self._rows
        sync = self._sync
        count = self._count
        read_stall = self._read_stall
        write_stall = self._write_stall
        buffer_flush = self._buffer_flush
        acc = self._acc
        new_row = self._new_row
        accesses = self._accesses
        sync_events = self._sync_events
        for row in rows:
            kind = row[0]
            if kind is BUSY or kind is WAIT:
                continue
            if kind is STALL:
                i = _STALL_INDEX.get(row[4])
                if i is None:
                    continue
                proc, cycles = row[1], row[3]
                pid = cur[proc]
                cell = self._stall.get(pid)
                if cell is None:
                    cell = self._stall[pid] = new_row()
                self._columns[i][cell] += cycles
                count[cell] += 1
                acc[proc][i] += cycles
                continue
            if kind is PHASE:
                proc, label, time = row[1], row[2], row[3]
                pid = self._phase_ids.get(label)
                if pid is None:
                    pid = self._phase_ids[label] = len(self._phase_names)
                    self._phase_names.append(label)
                    self._data.append({})
                    self._touches.append(array("I"))
                cur[proc] = pid
                cur_touches[proc] = self._touches[pid]
                data_rows[proc] = self._data[pid]
                self._phase_marks.append((time, proc, label))
                continue
            _, proc, target, _, _, rs, ws, bf, _, _ = row
            # A non-blocking read's latency is hidden: the engine charges
            # none of its result.
            uncharged = (rs == 0.0 and ws == 0.0 and bf == 0.0) or kind == "read_nb"
            if target.__class__ is SyncPoint:
                # Barriers and fences arrive as releases; the SyncPoint's
                # kind keeps them apart.
                sync_events += 1
                key = (cur[proc], target.kind, target.sync_id)
                cell = sync.get(key)
                if cell is None:
                    cell = sync[key] = new_row()
                count[cell] += 1
                if uncharged:
                    continue
                block = None
            else:
                accesses += 1
                block = target // line
                touches = cur_touches[proc]
                try:
                    touches[block] += 1
                except IndexError:
                    touches.frombytes(bytes(touches.itemsize * (block - len(touches))))
                    touches.append(1)
                if uncharged:
                    continue
                cells = data_rows[proc]
                cell = cells.get(block)
                if cell is None:
                    cell = cells[block] = new_row()
            read_stall[cell] += rs
            write_stall[cell] += ws
            buffer_flush[cell] += bf
            stalls = acc[proc]
            stalls[0] += rs
            stalls[1] += ws
            stalls[2] += bf
            if block is not None and home_of is not None:
                home = homes.get(block)
                if home is None:
                    home = homes[block] = home_of(block)
                pair = (proc, home)
                pairs[pair] = pairs.get(pair, 0.0) + rs + ws + bf
        self._accesses = accesses
        self._sync_events = sync_events

    # -- accessors --------------------------------------------------------
    @property
    def accesses(self) -> int:
        """Data accesses folded."""
        self._log.flush()
        return self._accesses

    @property
    def sync_events(self) -> int:
        """Sync ops folded."""
        self._log.flush()
        return self._sync_events

    @property
    def phase_marks(self) -> list[tuple[float, int, str]]:
        """``(time, proc, label)`` for every phase marker, in issue order."""
        self._log.flush()
        return self._phase_marks


# ---------------------------------------------------------------------------
# block naming


def block_span_names(shm, line_size: int, blocks: Iterable[int]) -> Iterator[tuple[str, str]]:
    """Resolve blocks to ``(element-span name, owning array name)`` pairs.

    :meth:`repro.runtime.sharedmem.SharedMemory.name_blocks` (one walk
    per ascending run of blocks), with the ``block:<n>`` fallback when
    no shared memory is attached; the second element (``excess[0:8]``
    -> ``excess``) is the system-independent key :func:`diff_reports`
    aligns on.
    """
    if shm is None:
        return ((f"block:{block}", f"block:{block}") for block in blocks)
    return shm.name_blocks(blocks, line_size)


def block_span_name(shm, line_size: int, block: int) -> tuple[str, str]:
    """:func:`block_span_names` for one block."""
    return next(block_span_names(shm, line_size, (block,)))


def _sync_row_label(sync_names, kind: str, sync_id: int) -> str:
    """Canonical label for a sync cell (``lock:mf.count_lock#0``)."""
    if sync_id < 0:
        return kind  # fence / anonymous: no per-object id
    obj_kind = "flag" if kind.startswith("flag") else kind
    name = sync_names.get((obj_kind, sync_id), "") if sync_names else ""
    return sync_label(kind, name, sync_id)


# ---------------------------------------------------------------------------
# report construction


def _zero_row() -> dict[str, float]:
    return {"read_stall": 0.0, "write_stall": 0.0, "buffer_flush": 0.0, "count": 0}


def _fold(row: dict, rs: float, ws: float, bf: float, count) -> None:
    row["read_stall"] += rs
    row["write_stall"] += ws
    row["buffer_flush"] += bf
    row["count"] += count


def _row(rows: dict[str, list], key: str) -> list:
    """The running ``[read_stall, write_stall, buffer_flush, count]``
    row of ``key``, started at zero."""
    row = rows.get(key)
    if row is None:
        row = rows[key] = [0.0, 0.0, 0.0, 0]
    return row


def _fold_columns(columns) -> list:
    """``[read_stall, write_stall, buffer_flush, count]`` of four value
    ``columns``, added in order from zero as a running row would be."""
    rs, ws, bf, n = columns
    return [reduce(add, rs, 0.0), reduce(add, ws, 0.0), reduce(add, bf, 0.0), sum(n)]


#: Maps a zero stall to one shared ``0.0`` (a column never holds -0.0:
#: it starts at 0.0 and adds non-negative stalls).
_SHARED_ZERO = {0.0: 0.0}.get


def _values(column: array, rows: list[int]) -> list[float]:
    """``column[row]`` for each of ``rows``.  A typed column boxes a new
    float per read; the zeros, most of a charged cell's columns, share
    one object instead of holding 24 B each for as long as the report."""
    return list(map(_SHARED_ZERO, map(column.__getitem__, rows), map(column.__getitem__, rows)))


def _finish_rows(rows: dict[str, tuple], total_overhead: float) -> list[dict]:
    """Report rows from ``(read_stall, write_stall, buffer_flush, count)``
    folds, largest overhead first (ties by key).  A block fold goes on
    with the ``(array, block, home)`` its row carries."""
    out = []
    append = out.append
    for key, row in rows.items():
        rs, ws, bf, n = row[0], row[1], row[2], row[3]
        overhead = rs + ws + bf
        # round() is slow and would round a zero share to 0.0 anyway.
        share = (
            round(100.0 * overhead / total_overhead, 2)
            if overhead and total_overhead > 0 else 0.0
        )
        entry = {
            "key": key, "read_stall": rs, "write_stall": ws, "buffer_flush": bf,
            "count": n, "overhead": overhead, "share_pct": share,
        }
        if len(row) > 4:
            entry["array"], entry["block"], entry["home"] = row[4:]
        append(entry)
    # Stable sorts: key order survives among equal overheads.
    out.sort(key=itemgetter("key"))
    out.sort(key=itemgetter("overhead"), reverse=True)
    return out


def _cycle_gc_paused(fn):
    """Run ``fn`` with cyclic garbage collection paused, as
    :meth:`repro.sim.engine.Engine.run` runs: a report allocates a dict
    per cell and row but no reference cycles, so collections would only
    re-traverse the live heap."""

    @wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


@_cycle_gc_paused
def build_report(
    collector: AttributionCollector,
    result,
    app: str = "",
    system: str = "",
    scale: str = "",
    label: str = "",
    sync_names: dict[tuple[str, int], str] | None = None,
) -> dict:
    """Fold a collector's cells into the four-dimension report document.

    ``result`` is the run's :class:`~repro.sim.stats.SimResult`; the
    report's ``totals`` come from it and ``residual`` records what the
    cells failed to attribute per category (zero for every standard
    application — asserted by tests/test_attrib.py).

    Only the cells with a nonzero overhead column are sorted, named,
    homed and emitted; the events of the rest form the ``(no overhead)``
    row of every dimension.  Dropping a cell drops only ``+ 0.0``
    addends, so every emitted sum is the one all cells would give.
    """
    collector._log.flush()
    nprocs = collector.nprocs
    totals = {
        "busy": fsum(p.busy for p in result.procs),
        "read_stall": fsum(p.read_stall for p in result.procs),
        "write_stall": fsum(p.write_stall for p in result.procs),
        "buffer_flush": fsum(p.buffer_flush for p in result.procs),
        "sync_wait": fsum(p.sync_wait for p in result.procs),
    }
    totals["overhead"] = totals["read_stall"] + totals["write_stall"] + totals["buffer_flush"]
    attributed = {
        cat: fsum(acc[i] for acc in collector._acc)
        for i, cat in enumerate(OVERHEAD_CATEGORIES)
    }
    residual = {cat: totals[cat] - attributed[cat] for cat in OVERHEAD_CATEGORIES}
    exact = all(abs(v) <= EXACT_TOLERANCE for v in residual.values())
    attributed_overhead = sum(attributed.values())

    shm, line = collector.shm, collector._line
    phase_names = collector._phase_names
    # Dimension folds, as [read_stall, write_stall, buffer_flush, count]
    # rows.  Every dimension partitions the attributed overhead:
    # block/home absorb sync cells into a "(sync ops)" row, sync absorbs
    # data cells into "(data)", all three absorb stall cells into
    # "(stall ops)", and all four the events of uncharged cells into
    # "(no overhead)".
    by_block: dict[str, tuple | list] = {}
    by_sync: dict[str, list] = {}
    by_phase: dict[str, list] = {}
    by_home: dict[str, list] = {}
    columns = collector._columns
    touches = collector._touches
    homes = collector._homes
    # The rows of the cells that charged overhead: a nonzero entry in
    # any of the three overhead columns.
    charged = set(compress(count(), columns[0]))
    charged.update(compress(count(), columns[1]))
    charged.update(compress(count(), columns[2]))
    is_charged = charged.__contains__
    # Charged data cells in (phase, block) order: one ascending block run
    # per phase, which block_span_names walks once each.
    runs: list[tuple[int, list[int]]] = []
    for pid, rows in enumerate(collector._data):
        blocks = sorted(compress(rows, map(is_charged, rows.values())))
        if blocks:
            runs.append((pid, blocks))
    names = block_span_names(shm, line, chain.from_iterable(blocks for _, blocks in runs))
    # Running [read_stall, write_stall, buffer_flush, count] rows of all
    # charged data cells and of each home's, added in cell order.
    data_total = [0.0, 0.0, 0.0, 0]
    home_rows: dict = {}
    cells: list[dict] = []
    append = cells.append
    for pid, blocks in runs:
        phase = phase_names[pid]
        ids = list(map(collector._data[pid].__getitem__, blocks))
        picked: list[list] = [_values(col, ids) for col in columns[:3]]
        # A data cell's events are its counter slot.
        picked.append(list(map(touches[pid].__getitem__, blocks)))
        by_phase[phase] = _fold_columns(picked)
        data_total = [reduce(add, values, total) for values, total in zip(picked, data_total)]
        # ``names`` last: zip stops on ``blocks`` without pulling a name.
        for block, rs, ws, bf, n, (name, array_name) in zip(blocks, *picked, names):
            # A charged block was stalled, so the fold homed it (when the
            # memory system has homes).
            home = homes.get(block)
            append(
                {
                    "phase": phase, "kind": "data", "key": array_name,
                    "name": name, "block": block, "home": home,
                    "read_stall": rs, "write_stall": ws, "buffer_flush": bf,
                    "count": n,
                }
            )
            home_fold = home_rows.get(home)
            if home_fold is None:
                home_fold = home_rows[home] = [0.0, 0.0, 0.0, 0]
            home_fold[0] += rs
            home_fold[1] += ws
            home_fold[2] += bf
            home_fold[3] += n
            fold = by_block.get(name)
            if fold is None:
                by_block[name] = (rs, ws, bf, n, array_name, block, home)
            else:
                # A name spanning several blocks across phases keeps no
                # block number.
                by_block[name] = (
                    fold[0] + rs, fold[1] + ws, fold[2] + bf, fold[3] + n,
                    fold[4], block if fold[5] == block else None, fold[6],
                )
    for home, fold in home_rows.items():
        by_home[f"node {home}" if home is not None else "(no home)"] = fold
    sync_total = [0.0, 0.0, 0.0, 0]
    stall_total = [0.0, 0.0, 0.0, 0]
    sync_cells = sorted(item for item in collector._sync.items() if is_charged(item[1]))
    for (pid, kind, sid), row in sync_cells:
        rs, ws, bf, n = (column[row] for column in columns)
        row_key = _sync_row_label(sync_names, kind, sid)
        phase = phase_names[pid]
        cells.append(
            {
                "phase": phase, "kind": "sync", "key": row_key, "name": row_key,
                "sync_kind": kind, "sync_id": sid, "home": None,
                "read_stall": rs, "write_stall": ws, "buffer_flush": bf,
                "count": n,
            }
        )
        for fold in (_row(by_phase, phase), sync_total, _row(by_sync, row_key)):
            fold[0] += rs
            fold[1] += ws
            fold[2] += bf
            fold[3] += n
    stall_cells = sorted(item for item in collector._stall.items() if is_charged(item[1]))
    for pid, row in stall_cells:
        rs, ws, bf, n = (column[row] for column in columns)
        phase = phase_names[pid]
        cells.append(
            {
                "phase": phase, "kind": "stall", "key": STALL_ROW,
                "name": STALL_ROW, "home": None,
                "read_stall": rs, "write_stall": ws, "buffer_flush": bf,
                "count": n,
            }
        )
        for fold in (_row(by_phase, phase), stall_total):
            fold[0] += rs
            fold[1] += ws
            fold[2] += bf
            fold[3] += n
    if sync_total[3]:
        by_block[SYNC_ROW] = sync_total
        by_home[SYNC_ROW] = sync_total
    if data_total[3]:
        by_sync[DATA_ROW] = data_total
    if stall_total[3]:
        for rows in (by_block, by_sync, by_home):
            rows[STALL_ROW] = stall_total
    # Every cell holds at least one event, so the uncharged events are
    # nonzero exactly when some cell charged nothing.
    stall_ops = sum(map(columns[3].__getitem__, collector._stall.values()))
    folded = collector._accesses + collector._sync_events + stall_ops
    uncharged = folded - data_total[3] - sync_total[3] - stall_total[3]
    if uncharged:
        uncharged_row = [0.0, 0.0, 0.0, uncharged]
        for rows in (by_block, by_sync, by_phase, by_home):
            rows[UNCHARGED_ROW] = uncharged_row

    dims = {
        "block": _finish_rows(by_block, attributed_overhead),
        "sync": _finish_rows(by_sync, attributed_overhead),
        "phase": _finish_rows(by_phase, attributed_overhead),
        "home": _finish_rows(by_home, attributed_overhead),
    }

    # Home-dimension context: directory population and the derived
    # route-weighted link load (a stalled cycle is credited to every hop
    # of its requester->home route, so links do NOT sum to the totals).
    directory = getattr(collector.memsys, "directory", None)
    node_rows = [row for row in dims["home"] if row["key"].startswith("node ")]
    if node_rows and directory is not None and collector._home_of is not None:
        dir_blocks = directory.blocks_by_home(collector._home_of, nprocs)
        for row in node_rows:
            row["dir_blocks"] = dir_blocks[int(row["key"][5:])]
    links = _link_load(collector)

    phases = [{"label": STARTUP_PHASE, "first_mark": 0.0}]
    seen = {STARTUP_PHASE}
    for t, _proc, mark_label in sorted(collector._phase_marks):
        if mark_label not in seen:
            seen.add(mark_label)
            phases.append({"label": mark_label, "first_mark": t})

    return {
        "schema": SCHEMA,
        "kind": REPORT_KIND,
        "app": app,
        "system": system,
        "label": label,
        "scale": scale,
        "nprocs": nprocs,
        "line_size": line,
        "total_time": result.total_time,
        "ops": result.ops,
        "totals": totals,
        "attributed": attributed,
        "residual": residual,
        "exact": exact,
        "counts": {
            "accesses": collector._accesses,
            "sync_events": collector._sync_events,
            "data_cells": sum(len(t) - t.count(0) for t in touches),
            "sync_cells": len(collector._sync),
        },
        "phases": phases,
        "dims": dims,
        "links": links,
        "cells": cells,
    }


def _link_load(collector: AttributionCollector) -> list[dict]:
    """Per-link stall load from the requester→home pairs (derived view)."""
    if not collector._pairs:
        return []
    config = getattr(collector.memsys, "config", None)
    if config is None:
        return []
    from ..network.topology import make_topology

    dims = config.mesh_dims if config.topology in ("mesh", "torus") else None
    try:
        topo = make_topology(config.topology, config.nprocs, dims)
    except ValueError:
        return []
    load: dict[tuple[int, int], float] = {}
    for (src, dst), stall in collector._pairs.items():
        for link in topo.route(src, dst):
            load[link] = load.get(link, 0.0) + stall
    rows = [
        {"link": f"{u}->{v}", "overhead": cycles}
        for (u, v), cycles in load.items()
    ]
    rows.sort(key=lambda r: (-r["overhead"], r["link"]))
    return rows


# ---------------------------------------------------------------------------
# differential mode


def load_report(path: str | os.PathLike) -> dict:
    """Read and validate an attribution report written by ``--out``
    (any schema in :data:`READABLE_SCHEMAS`)."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or doc.get("kind") != REPORT_KIND:
        raise ValueError(f"{path} is not an attribution report (kind != {REPORT_KIND!r})")
    if doc.get("schema") not in READABLE_SCHEMAS:
        raise ValueError(
            f"{path}: attribution report schema {doc.get('schema')!r} is not one of "
            f"{READABLE_SCHEMAS}"
        )
    return doc


def _aligned(report: dict, dim: str) -> dict[tuple[str, str], dict]:
    """Cells re-aggregated on system-independent ``(phase, key)`` pairs.

    ``dim`` picks the key: array name (block), sync label (sync), the
    empty string (phase — the phase alone aligns), or home node (home).
    Block *numbers* never appear: the z-machine's one-word lines and the
    real systems' 32-byte lines number blocks differently, so arrays and
    labels are the only keys two systems share.
    """
    out: dict[tuple[str, str], dict] = {}
    for c in report["cells"]:
        if dim == "block":
            key = SYNC_ROW if c["kind"] == "sync" else c["key"]
        elif dim == "sync":
            key = DATA_ROW if c["kind"] == "data" else c["name"]
        elif dim == "home":
            if c.get("home") is not None:
                key = f"node {c['home']}"
            else:
                key = STALL_ROW if c["kind"] == "stall" else SYNC_ROW
        else:  # phase
            key = ""
        row = out.setdefault((c["phase"], key), _zero_row())
        _fold(row, c["read_stall"], c["write_stall"], c["buffer_flush"], c["count"])
    return out


def _diff_dim(a: dict, b: dict, dim: str, gap: float, collapse_phase: bool) -> list[dict]:
    ca, cb = _aligned(a, dim), _aligned(b, dim)
    if collapse_phase:
        # Fold the phase axis away for the per-dimension tables; the
        # hotspot list keeps it.
        def collapse(cells: dict) -> dict:
            out: dict[tuple[str, str], dict] = {}
            for (phase, key), row in cells.items():
                merged = out.setdefault(("", key if dim != "phase" else phase), _zero_row())
                _fold(
                    merged, row["read_stall"], row["write_stall"], row["buffer_flush"],
                    row["count"],
                )
            return out

        ca, cb = collapse(ca), collapse(cb)
    rows = []
    for cell_key in sorted(set(ca) | set(cb)):
        phase, key = cell_key
        ra = ca.get(cell_key, _zero_row())
        rb = cb.get(cell_key, _zero_row())
        deltas = {
            cat: rb[cat] - ra[cat] for cat in OVERHEAD_CATEGORIES
        }
        delta = sum(deltas.values())
        if delta == 0.0 and all(v == 0.0 for v in deltas.values()):
            continue
        a_overhead = sum(ra[cat] for cat in OVERHEAD_CATEGORIES)
        row = {
            "key": key,
            "a": a_overhead,
            "b": a_overhead + delta,
            "delta": delta,
            "share_of_gap_pct": round(100.0 * delta / gap, 2) if gap else None,
            **{f"delta_{cat}": deltas[cat] for cat in OVERHEAD_CATEGORIES},
        }
        if phase:
            row["phase"] = phase
        rows.append(row)
    rows.sort(key=lambda r: (-abs(r["delta"]), r["key"]))
    return rows


def diff_reports(a: dict, b: dict) -> dict:
    """Decompose the overhead delta between two attribution reports.

    The gap is ``b - a`` per category and dimension row; a self-diff is
    all-zero and swapping the arguments negates every delta (the
    antisymmetry tests/test_attrib.py pins).  Reports from different
    apps still diff (keys simply fail to align), but the result is only
    meaningful for the same workload under two systems or scenarios.
    """
    for doc in (a, b):
        if doc.get("kind") != REPORT_KIND:
            raise ValueError(f"diff_reports needs attribution reports, got {doc.get('kind')!r}")
    delta = {
        cat: b["totals"][cat] - a["totals"][cat]
        for cat in (*OVERHEAD_CATEGORIES, "overhead", "busy", "sync_wait")
    }
    delta["total_time"] = b["total_time"] - a["total_time"]
    gap = delta["overhead"]

    def _side(doc: dict) -> dict:
        return {
            "app": doc["app"], "system": doc["system"], "label": doc["label"],
            "scale": doc["scale"], "total_time": doc["total_time"],
            "overhead": doc["totals"]["overhead"],
        }

    return {
        "schema": DIFF_SCHEMA,
        "kind": DIFF_KIND,
        "a": _side(a),
        "b": _side(b),
        "delta": delta,
        "gap": gap,
        "dims": {
            dim: _diff_dim(a, b, dim, gap, collapse_phase=True) for dim in DIMENSIONS
        },
        # Finest alignment: (phase, array-or-sync-label) — the rows the
        # worked examples in docs/observability.md quote.
        "hotspots": _diff_dim(a, b, "block", gap, collapse_phase=False),
    }


# ---------------------------------------------------------------------------
# formatting


def _describe(doc: dict) -> str:
    label = f" [{doc['label']}]" if doc.get("label") else ""
    return f"{doc['app']} on {doc['system']}{label}"


def format_attribution(report: dict, by: str = "all", top: int = 10) -> str:
    """Ranked attribution tables for one report (``repro attribute``)."""
    t = report["totals"]
    lines = [
        f"overhead attribution: {_describe(report)} "
        f"({report['scale'] or 'default'} scale, P={report['nprocs']})",
        f"  total {report['total_time']:,.0f} cycles; overhead {t['overhead']:,.1f} "
        f"(read {t['read_stall']:,.1f}, write {t['write_stall']:,.1f}, "
        f"flush {t['buffer_flush']:,.1f}); "
        f"exact: {'yes' if report['exact'] else 'NO (see residual)'}",
    ]
    dims = DIMENSIONS if by == "all" else (by,)
    for dim in dims:
        rows = report["dims"][dim]
        lines.append(f"by {dim}:")
        lines.append(
            f"  {'key':<34s} {'read':>12s} {'write':>12s} {'flush':>12s} "
            f"{'overhead':>12s} {'share':>7s} {'events':>9s}"
        )
        for row in rows[:top]:
            lines.append(
                f"  {row['key'][:34]:<34s} {row['read_stall']:>12.1f} "
                f"{row['write_stall']:>12.1f} {row['buffer_flush']:>12.1f} "
                f"{row['overhead']:>12.1f} {row['share_pct']:>6.1f}% {row['count']:>9d}"
            )
        if len(rows) > top:
            rest = sum(r["overhead"] for r in rows[top:])
            lines.append(f"  ... {len(rows) - top} more row(s), {rest:,.1f} cycles")
    if report["links"] and (by in ("all", "home")):
        hottest = report["links"][0]
        lines.append(
            f"hottest link (route-weighted): {hottest['link']} "
            f"({hottest['overhead']:,.1f} stall cycles routed over it)"
        )
    return "\n".join(lines)


def format_diff(diff: dict, by: str = "all", top: int = 10) -> str:
    """Human-readable overhead-delta decomposition (``repro diff``)."""
    gap = diff["gap"]
    lines = [
        f"overhead diff: A = {_describe(diff['a'])}  vs  B = {_describe(diff['b'])}",
        f"  overhead {diff['a']['overhead']:,.1f} -> {diff['b']['overhead']:,.1f} "
        f"(gap {gap:+,.1f} cycles; total time {diff['delta']['total_time']:+,.1f})",
    ]
    if gap == 0.0 and not any(diff["dims"][d] for d in DIMENSIONS):
        lines.append("  reports are identical: every attributed cell matches")
        return "\n".join(lines)
    dims = DIMENSIONS if by == "all" else (by,)
    for dim in dims:
        rows = diff["dims"][dim]
        if not rows:
            continue
        lines.append(f"by {dim}:")
        lines.append(
            f"  {'key':<34s} {'A':>12s} {'B':>12s} {'delta':>12s} {'of gap':>8s}"
        )
        for row in rows[:top]:
            share = (
                f"{row['share_of_gap_pct']:+.1f}%"
                if row["share_of_gap_pct"] is not None
                else "-"
            )
            lines.append(
                f"  {row['key'][:34]:<34s} {row['a']:>12.1f} {row['b']:>12.1f} "
                f"{row['delta']:>+12.1f} {share:>8s}"
            )
    hot = [r for r in diff["hotspots"] if r.get("phase")][:3]
    for row in hot:
        cats = {cat: row[f"delta_{cat}"] for cat in OVERHEAD_CATEGORIES}
        dominant = max(cats, key=lambda c: abs(cats[c]))
        share = (
            f"{row['share_of_gap_pct']:+.1f}% of the gap"
            if row["share_of_gap_pct"] is not None
            else f"{row['delta']:+,.1f} cycles"
        )
        lines.append(
            f"hotspot: {share} is {dominant} on {row['key']} "
            f"in phase {row['phase']} ({row['delta']:+,.1f} cycles)"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# one-call driver


def run_attribution(
    factory,
    system: str,
    config,
    app: str = "",
    scale: str = "",
    label: str = "",
):
    """Run ``factory()`` on ``system`` under attribution.

    Returns ``(report, result)``.  Used by the CLI and the tests;
    imports the runtime lazily so ``repro.obs`` stays importable without
    the full machine stack.
    """
    from ..apps.base import run_machine

    machine, result, collector = run_machine(
        factory(), system, config, verify=False, attach=(AttributionCollector.attach,)
    )
    report = build_report(
        collector,
        result,
        app=app,
        system=system,
        scale=scale,
        label=label,
        sync_names=machine.sync.sync_names(),
    )
    return report, result


__all__ = [
    "DIFF_KIND",
    "DIFF_SCHEMA",
    "DIMENSIONS",
    "EXACT_TOLERANCE",
    "OVERHEAD_CATEGORIES",
    "READABLE_SCHEMAS",
    "REPORT_KIND",
    "SCHEMA",
    "STALL_ROW",
    "UNCHARGED_ROW",
    "AttributionCollector",
    "block_span_name",
    "block_span_names",
    "build_report",
    "diff_reports",
    "format_attribution",
    "format_diff",
    "load_report",
    "run_attribution",
]
