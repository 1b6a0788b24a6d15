"""Chrome trace-event / Perfetto JSON export of traced runs.

Converts :class:`repro.sim.trace.TracingMemory` event lists into the
`trace-event format <https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
understood by ``chrome://tracing`` and https://ui.perfetto.dev:

- one lane (*thread*) per simulated processor carrying complete ("X")
  slices for every access, named by kind and hit/miss, with the stall
  decomposition in ``args``;
- one extra lane per processor carrying application ``phase`` spans;
- flow events ("s"/"t"/"f") stitching barrier episodes across the
  arriving processors and lock hand-offs from release to next acquire.

Simulated cycles are written as microsecond timestamps (1 cycle = 1 us)
— absolute units are meaningless in a simulator, relative extents are
what the timeline is for.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..analysis.naming import sync_label
from .attrib import SYNC_ROW

#: tid offset for the per-processor phase lanes.
PHASE_LANE = 1000

_SyncNames = dict[tuple[str, int], str]


def _sync_name(names: _SyncNames | None, kind: str, sync_id: int | None) -> str:
    if names is None or sync_id is None:
        return ""
    if kind.startswith("flag"):
        kind = "flag"
    return names.get((kind, sync_id), "")


def _slice_name(e, names: _SyncNames | None = None) -> str:
    if e.sync_kind is not None:
        if e.sync_id is None:
            return e.sync_kind
        return sync_label(e.sync_kind, _sync_name(names, e.sync_kind, e.sync_id), e.sync_id)
    if e.kind in ("read", "write"):
        return f"{e.kind} {'hit' if e.hit else 'miss'}"
    return e.kind


def to_perfetto(
    events,
    nprocs: int,
    total_time: float | None = None,
    app: str = "",
    system: str = "",
    sync_names: _SyncNames | None = None,
    metrics: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Build a trace-event JSON document from trace events.

    ``events`` is a :class:`~repro.sim.trace.TracingMemory` or any
    iterable of :class:`~repro.sim.trace.TraceEvent`.  ``sync_names``
    (from :meth:`SyncManager.sync_names`) labels sync slices and flow
    events with their declaration names, matching the spelling used by
    the static analyzer's reports.  ``metrics`` (a
    :meth:`MetricsCollector.to_dict` document) adds per-bucket counter
    tracks — events/sec, event-wheel depth, store-buffer depth — above
    the processor lanes.
    """
    source = events
    events = list(getattr(events, "events", events))
    if total_time is None:
        total_time = max((e.complete for e in events), default=0.0)

    meta: list[dict[str, Any]] = []
    title = " ".join(x for x in (app, "on", system) if x) if (app or system) else "simulation"
    meta.append(
        {"ph": "M", "pid": 0, "tid": 0, "ts": 0, "name": "process_name",
         "args": {"name": f"repro {title}"}}
    )
    has_phases = any(e.kind == "phase" for e in events)
    for p in range(nprocs):
        meta.append(
            {"ph": "M", "pid": 0, "tid": p, "ts": 0, "name": "thread_name",
             "args": {"name": f"proc {p}"}}
        )
        meta.append(
            {"ph": "M", "pid": 0, "tid": p, "ts": 0, "name": "thread_sort_index",
             "args": {"sort_index": 2 * p}}
        )
        if has_phases:
            meta.append(
                {"ph": "M", "pid": 0, "tid": PHASE_LANE + p, "ts": 0, "name": "thread_name",
                 "args": {"name": f"phases p{p}"}}
            )
            meta.append(
                {"ph": "M", "pid": 0, "tid": PHASE_LANE + p, "ts": 0,
                 "name": "thread_sort_index", "args": {"sort_index": 2 * p + 1}}
            )

    body: list[dict[str, Any]] = []
    phase_marks: dict[int, list] = {}
    for e in events:
        if e.kind == "phase":
            phase_marks.setdefault(e.proc, []).append(e)
            continue
        entry: dict[str, Any] = {
            "ph": "X", "pid": 0, "tid": e.proc, "cat": "sim",
            "name": _slice_name(e, sync_names),
            "ts": e.issue, "dur": e.complete - e.issue,
        }
        args: dict[str, Any] = {}
        if e.addr is not None:
            args["addr"] = e.addr
        for field in ("read_stall", "write_stall", "buffer_flush"):
            v = getattr(e, field)
            if v:
                args[field] = v
        if e.episode is not None:
            args["episode"] = e.episode
        if args:
            entry["args"] = args
        body.append(entry)

    # -- application phase lanes ---------------------------------------
    for proc, marks in phase_marks.items():
        marks.sort(key=lambda e: e.issue)
        for i, mark in enumerate(marks):
            end = marks[i + 1].issue if i + 1 < len(marks) else total_time
            body.append(
                {"ph": "X", "pid": 0, "tid": PHASE_LANE + proc, "cat": "phase",
                 "name": mark.label or "phase",
                 "ts": mark.issue, "dur": max(0.0, end - mark.issue)}
            )

    # -- barrier flow events -------------------------------------------
    barriers: dict[tuple[int, int], list] = {}
    for e in events:
        if e.kind == "release" and e.sync_kind == "barrier":
            barriers.setdefault((e.sync_id, e.episode or 0), []).append(e)
    for (bar_id, episode), arrivals in barriers.items():
        if len(arrivals) < 2:
            continue
        arrivals.sort(key=lambda e: e.issue)
        flow_id = f"barrier{bar_id}.e{episode}"
        bar_name = sync_label("barrier", _sync_name(sync_names, "barrier", bar_id), bar_id)
        for i, e in enumerate(arrivals):
            ph = "s" if i == 0 else ("f" if i == len(arrivals) - 1 else "t")
            entry = {
                "ph": ph, "pid": 0, "tid": e.proc, "cat": "flow",
                "name": bar_name, "id": flow_id, "ts": e.issue,
            }
            if ph == "f":
                entry["bp"] = "e"
            body.append(entry)

    # -- lock hand-off flow events -------------------------------------
    locks: dict[int, list] = {}
    for e in events:
        if e.sync_kind == "lock" and e.kind in ("acquire", "release"):
            locks.setdefault(e.sync_id, []).append(e)
    for lock_id, ops in locks.items():
        ops.sort(key=lambda e: e.issue)
        lock_name = sync_label("lock", _sync_name(sync_names, "lock", lock_id), lock_id)
        handoff = 0
        pending = None  # last unmatched release
        for e in ops:
            if e.kind == "release":
                pending = e
            elif pending is not None and e.proc != pending.proc:
                flow_id = f"lock{lock_id}.h{handoff}"
                handoff += 1
                body.append(
                    {"ph": "s", "pid": 0, "tid": pending.proc, "cat": "flow",
                     "name": lock_name, "id": flow_id, "ts": pending.issue}
                )
                body.append(
                    {"ph": "f", "bp": "e", "pid": 0, "tid": e.proc, "cat": "flow",
                     "name": lock_name, "id": flow_id, "ts": e.issue}
                )
                pending = None

    body.extend(_counter_events(metrics))
    body.sort(key=lambda entry: entry["ts"])
    other: dict[str, Any] = {"app": app, "system": system, "total_time_cycles": total_time}
    # When the caller passed a TracingMemory (not a bare event list),
    # embed its hot-block rankings so the --out sidecar carries them.
    hottest = getattr(source, "hottest_blocks", None)
    if callable(hottest):
        other["hottest_blocks"] = hottest()
        accessed = getattr(source, "hottest_accessed", None)
        if callable(accessed):
            other["hottest_accessed"] = accessed()
        dropped = getattr(source, "dropped", 0)
        if dropped:
            other["dropped_events"] = dropped
    return {
        "traceEvents": meta + body,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def attribution_to_perfetto(report: dict[str, Any], top: int = 8) -> dict[str, Any]:
    """Perfetto counter heatmap from an attribution report.

    One ``"C"`` counter track per top-``top`` named region (ranked by
    attributed overhead) plus one machine-wide track per stall category,
    each sampled at the first mark of every application phase with the
    overhead cycles that region/category accumulated *inside that
    phase*.  Scrubbing the result next to a ``repro trace`` timeline of
    the same run shows where in simulated time each hot structure paid.
    """
    phases = {p["label"]: p["first_mark"] for p in report.get("phases", ())}
    # Rows rank largest overhead first; a zero row (the "(no overhead)"
    # remainder, or an uncharged row of a schema-1 report) has nothing
    # to draw.
    hot = [r["key"] for r in report["dims"]["block"][:top] if r["overhead"]]
    per_cell: dict[tuple[str, str], float] = {}
    per_cat: dict[tuple[str, str], float] = {}
    for c in report["cells"]:
        # The block dimension keys a data cell by its span name, and
        # folds every sync cell into one row.
        key = SYNC_ROW if c["kind"] == "sync" else c["name"]
        if key in hot:
            pair = (c["phase"], key)
            per_cell[pair] = per_cell.get(pair, 0.0) + (
                c["read_stall"] + c["write_stall"] + c["buffer_flush"]
            )
        for cat in ("read_stall", "write_stall", "buffer_flush"):
            if c[cat]:
                pair = (c["phase"], cat)
                per_cat[pair] = per_cat.get(pair, 0.0) + c[cat]

    title = " ".join(x for x in (report.get("app"), "on", report.get("system")) if x)
    events: list[dict[str, Any]] = [
        {"ph": "M", "pid": 0, "tid": 0, "ts": 0, "name": "process_name",
         "args": {"name": f"repro attribution {title}".rstrip()}}
    ]
    for (phase, key), overhead in per_cell.items():
        events.append(
            {"ph": "C", "pid": 0, "tid": 0, "cat": "attrib",
             "name": f"stall: {key}", "ts": phases.get(phase, 0.0),
             "args": {"value": round(overhead, 1)}}
        )
    for (phase, cat), overhead in per_cat.items():
        events.append(
            {"ph": "C", "pid": 0, "tid": 0, "cat": "attrib",
             "name": f"total {cat.replace('_', ' ')}", "ts": phases.get(phase, 0.0),
             "args": {"value": round(overhead, 1)}}
        )
    events.sort(key=lambda entry: (entry["ts"], entry["name"]))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "kind": "attribution-heatmap",
            "app": report.get("app", ""),
            "system": report.get("system", ""),
            "total_time_cycles": report.get("total_time"),
            "tracks": len(hot),
        },
    }


def _counter_events(metrics: dict[str, Any] | None) -> list[dict[str, Any]]:
    """Perfetto ``C`` counter tracks from an interval-metrics document.

    One sample per bucket, stamped at the bucket's start: simulated
    events per second (1 cycle = 1 us, so ``accesses / interval * 1e6``),
    the event-wheel (ready queue) depth and the machine-wide store- and
    merge-buffer depths sampled at the bucket crossing.
    """
    if not metrics:
        return []
    interval = metrics.get("interval") or 0.0
    out: list[dict[str, Any]] = []
    for bucket in metrics.get("buckets", ()):
        ts = bucket["t0"]
        accesses = bucket.get("accesses")
        if accesses is not None and interval > 0:
            rate = round(accesses / interval * 1e6, 1)
            out.append(
                {"ph": "C", "pid": 0, "tid": 0, "cat": "metrics",
                 "name": "events/sec", "ts": ts, "args": {"value": rate}}
            )
        wheel = bucket.get("wheel_depth")
        if wheel is not None:
            out.append(
                {"ph": "C", "pid": 0, "tid": 0, "cat": "metrics",
                 "name": "wheel depth", "ts": ts, "args": {"value": wheel}}
            )
        depths = bucket.get("buffer_depth")
        if depths:
            for kind, per_proc in depths.items():
                out.append(
                    {"ph": "C", "pid": 0, "tid": 0, "cat": "metrics",
                     "name": f"{kind.replace('_', ' ')} depth", "ts": ts,
                     "args": {"value": sum(per_proc)}}
                )
    return out


def write_trace(path: str | Path, document: dict[str, Any]) -> Path:
    """Write a trace-event document as JSON; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(document) + "\n")
    return path
