"""Live run telemetry for multi-job studies, sweeps and benches.

Long ``--jobs N`` runs used to be silent for minutes.
:func:`repro.core.parallel.run_jobs` reports every job it starts and
every result it lands to a :class:`TelemetrySession`, which

* renders live per-job progress lines (``[7/30] IS/RCinv ...``) on the
  logger's diagnostic channel, including a completion-based ETA, and
* optionally persists every record to a replayable JSONL sink
  (``--telemetry-out``).

Records are plain dicts with a fixed schema::

    {"schema": 1, "job": 3, "seq": 1, "event": "finish",
     "app": "IS", "system": "RCinv", "events": 30591,
     "elapsed_s": 0.05, "events_per_sec": 611820.0,
     "cached": false, "eta_s": 3.1, "ts": 1754650000.0}

``job`` numbers the session's jobs in spec order, across every run
the command fans out, and ``seq`` orders a job's own records (0 =
start, 1 = finish).  The parent process emits every record
itself: ``start`` when it submits a job, ``finish`` when the result
lands.  Pool jobs finish in a nondeterministic order, so the JSONL sink
is sorted by ``(job, seq)`` at close — replaying a run twice yields the
same record sequence (timing fields aside), which is what the
determinism tests pin.

The session is process-wide (like the logger): the CLI opens one around
a command via :func:`session`, and ``run_jobs`` picks it up through
:func:`get_session` without threading a parameter through every caller.
"""
# Wall-clock use is deliberate here: telemetry times the *host*, never
# the simulation (obs/ is outside the determinism lint's core roots).

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from .log import get_logger

#: Record schema version (bump on breaking field changes).
SCHEMA = 1

#: Fields that vary run-to-run on a real host; replay comparisons and
#: the determinism tests ignore exactly these.
VOLATILE_FIELDS = ("elapsed_s", "events_per_sec", "eta_s", "ts")


def job_started(job: int, app: str, system: str) -> dict[str, Any]:
    """Heartbeat record for a job entering execution."""
    return {
        "schema": SCHEMA,
        "job": job,
        "seq": 0,
        "event": "start",
        "app": app,
        "system": system,
        "ts": time.time(),
    }


def job_finished(
    job: int,
    app: str,
    system: str,
    events: int,
    elapsed_s: float,
    cached: bool,
) -> dict[str, Any]:
    """Heartbeat record for a completed (or cache-served) job."""
    return {
        "schema": SCHEMA,
        "job": job,
        "seq": 1,
        "event": "finish",
        "app": app,
        "system": system,
        "events": events,
        "elapsed_s": round(elapsed_s, 6),
        "events_per_sec": round(events / elapsed_s, 1) if elapsed_s > 0 else None,
        "cached": cached,
        "ts": time.time(),
    }


class TelemetrySession:
    """Collects heartbeat records; renders progress; writes the sink.

    ``total`` may be attached late (``run_jobs`` knows the job count,
    the CLI does not).
    """

    def __init__(
        self,
        out: str | os.PathLike | None = None,
        render: bool = False,
        total: int | None = None,
    ):
        self.out = Path(out) if out is not None else None
        self.render = render
        self.total = total
        self.records: list[dict[str, Any]] = []
        self._started = time.time()
        self._finished = 0

    # -- record intake ---------------------------------------------------
    def attach_total(self, total: int) -> int:
        """Declare ``total`` more jobs; returns the session number of the first.

        A command may fan out several runs (a fuzz session runs one per
        batch of draws).  Their jobs are numbered, counted and timed
        across the whole session, so progress lines count up instead of
        restarting at ``[1/1]``; the clock starts with the first run.
        """
        first = self.total or 0
        if not first:
            self._started = time.time()
        self.total = first + total
        return first

    def emit(self, record: dict[str, Any]) -> None:
        """Ingest one heartbeat record (enriches ETA, renders, stores)."""
        if record.get("event") == "finish":
            self._finished += 1
            record["eta_s"] = self._eta()
        self.records.append(record)
        line = self._progress_line(record) if self.render else None
        if line:
            get_logger().info(line)

    def _eta(self) -> float | None:
        """Completion-based ETA in seconds (None until estimable)."""
        if not self.total or not self._finished:
            return None
        elapsed = time.time() - self._started
        remaining = self.total - self._finished
        return round(elapsed / self._finished * remaining, 1)

    def _progress_line(self, record: dict[str, Any]) -> str | None:
        if record.get("event") != "finish":
            return None
        done = self._finished
        total = self.total if self.total is not None else "?"
        name = f"{record.get('app', '?')}/{record.get('system', '?')}"
        if record.get("cached"):
            detail = "cache hit"
        else:
            eps = record.get("events_per_sec")
            detail = (
                f"{record.get('events', 0):,} ev, {eps:,.0f} ev/s"
                if eps
                else f"{record.get('events', 0):,} ev"
            )
        eta = record.get("eta_s")
        suffix = f", eta {eta:.0f}s" if eta else ""
        return f"[{done}/{total}] {name}: {detail}{suffix}"

    # -- teardown --------------------------------------------------------
    def close(self) -> None:
        """Write the sink, sorted by ``(job, seq)``."""
        if self.out is not None:
            self.out.parent.mkdir(parents=True, exist_ok=True)
            with open(self.out, "w") as fh:
                for record in sorted(
                    self.records, key=lambda r: (r.get("job", -1), r.get("seq", 0))
                ):
                    fh.write(json.dumps(record, sort_keys=True) + "\n")


_session: TelemetrySession | None = None


def get_session() -> TelemetrySession | None:
    """The active process-wide session, or None outside one."""
    return _session


@contextmanager
def session(
    out: str | os.PathLike | None = None,
    render: bool = False,
    total: int | None = None,
) -> Iterator[TelemetrySession]:
    """Open a process-wide :class:`TelemetrySession` for a command."""
    global _session
    previous = _session
    _session = TelemetrySession(out=out, render=render, total=total)
    try:
        yield _session
    finally:
        try:
            _session.close()
        finally:
            _session = previous


def load_records(path: str | os.PathLike) -> list[dict[str, Any]]:
    """Read a telemetry JSONL sink back into records (for replay)."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def stable_view(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Records with the host-timing fields stripped.

    Two runs of the same job set produce identical stable views — the
    property the determinism tests pin.
    """
    return [
        {k: v for k, v in record.items() if k not in VOLATILE_FIELDS}
        for record in records
    ]


__all__ = [
    "SCHEMA",
    "VOLATILE_FIELDS",
    "TelemetrySession",
    "get_session",
    "job_finished",
    "job_started",
    "load_records",
    "session",
    "stable_view",
]
