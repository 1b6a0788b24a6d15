"""Run manifests: every study/sweep/check/bench run, self-described.

A manifest is a plain JSON-serialisable dict recording what was run
(app, systems, configuration), against which code (source fingerprint),
where (host, Python), and how it went (wall-clock, simulated events,
events/sec, cache hits).  BENCH files and study outputs embed or sit
next to one, so a number in the repo can always be traced back to the
exact run that produced it.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

#: Manifest JSON schema version.
MANIFEST_SCHEMA = 1


def _config_dict(config: Any) -> Any:
    if config is None:
        return None
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return dataclasses.asdict(config)
    return repr(config)


def _job_entry(job: Any) -> dict[str, Any]:
    """Summarise one JobResult-like object (duck-typed)."""
    result = getattr(job, "result", None)
    ops = getattr(result, "ops", 0) if result is not None else 0
    elapsed = getattr(job, "elapsed", 0.0)
    return {
        "system": getattr(job, "system", ""),
        "app": getattr(job, "app", ""),
        "cached": bool(getattr(job, "cached", False)),
        "elapsed_s": elapsed,
        "events": ops,
        "events_per_sec": (ops / elapsed) if elapsed > 0 else None,
        "total_time_cycles": getattr(result, "total_time", None) if result is not None else None,
    }


def build_manifest(
    kind: str,
    *,
    config: Any = None,
    app: str | None = None,
    systems: list[str] | None = None,
    wall_seconds: float | None = None,
    jobs: list[Any] | None = None,
    cache: Any = None,
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Build a manifest dict for one run.

    ``kind`` names the producing command (``study``, ``sweep``,
    ``check``, ``bench``, ``trace``, ``paper-run``...).  ``jobs`` are
    JobResult-like objects; each contributes a per-job record plus the
    aggregate events / events-per-second figures, and the cache block
    counts the jobs that were (not) served from the cache.  ``cache``
    (a :class:`~repro.core.parallel.ResultCache`, when the run used one)
    adds the store's ``entries`` and ``bytes`` to that block.
    """
    # Imported here so repro.obs stays importable without repro.core.
    from ..core.parallel import code_fingerprint

    manifest: dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "kind": kind,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "host": {
            "node": platform.node(),
            "platform": platform.platform(),
            "python": sys.version.split()[0],
        },
        "code_fingerprint": code_fingerprint(),
    }
    if app is not None:
        manifest["app"] = app
    if systems is not None:
        manifest["systems"] = list(systems)
    if config is not None:
        manifest["config"] = _config_dict(config)
    if wall_seconds is not None:
        manifest["wall_seconds"] = wall_seconds
    if jobs:
        entries = [_job_entry(j) for j in jobs]
        manifest["jobs"] = entries
        total_events = sum(e["events"] for e in entries)
        fresh_elapsed = sum(
            e["elapsed_s"] for e in entries if not e["cached"] and e["elapsed_s"]
        )
        manifest["events"] = total_events
        if fresh_elapsed > 0:
            fresh_events = sum(e["events"] for e in entries if not e["cached"])
            manifest["events_per_sec"] = fresh_events / fresh_elapsed
        hits = sum(1 for e in entries if e["cached"])
        block = {"hits": hits, "misses": len(entries) - hits}
        block["hit_rate"] = round(hits / len(entries), 4)
        if cache is not None:
            block["entries"], block["bytes"] = cache.size()
        manifest["cache"] = block
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(path: str | Path, manifest: dict[str, Any]) -> Path:
    """Write ``manifest`` as pretty JSON; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def read_manifest(path: str | Path) -> dict[str, Any]:
    """Load a manifest written by :func:`write_manifest`."""
    return json.loads(Path(path).read_text())
