"""Observability subsystem: metrics, timelines, manifests, logging.

Four pillars (see docs/observability.md):

- :mod:`repro.obs.metrics` — interval metrics: per-processor stall
  decomposition, sync wait, network traffic and buffer depth sampled
  into fixed-width simulated-time buckets.
- :mod:`repro.obs.timeline` — Chrome trace-event / Perfetto JSON export
  of traced runs: one lane per processor, stall slices, phase markers,
  barrier/lock flow events.
- :mod:`repro.obs.manifest` — structured run manifests so BENCH files
  and studies are self-describing artifacts.
- :mod:`repro.obs.log` — the structured logger behind the CLI's
  ``--verbose``/``--quiet``/``--json`` modes.
- :mod:`repro.obs.profile` — the host self-profiler: a stack sampler
  attributing wall time per simulator component (``repro profile``).
- :mod:`repro.obs.telemetry` — per-job heartbeat records that
  ``run_jobs`` emits as jobs start and land: live progress rendering plus the
  ``--telemetry-out`` replayable JSONL sink.
- :mod:`repro.obs.attrib` — exact overhead attribution: every
  read-stall/write-stall/buffer-flush cycle charged to a named shared
  region, sync object, application phase and home node, with
  differential reports (``repro attribute`` / ``repro diff``).

Everything here is strictly additive: collectors subscribe to the
engine observer (:mod:`repro.sim.observer`), and with none attached the
simulation pays one ``is None`` check per op and nothing else.
"""

from .attrib import (
    AttributionCollector,
    build_report,
    diff_reports,
    format_attribution,
    format_diff,
    load_report,
    run_attribution,
)
from .log import Logger, configure, get_logger
from .manifest import build_manifest, read_manifest, write_manifest
from .metrics import Counter, Histogram, MetricsCollector
from .profile import HostProfiler
from .telemetry import TelemetrySession
from .timeline import attribution_to_perfetto, to_perfetto, write_trace

__all__ = [
    "AttributionCollector",
    "Counter",
    "Histogram",
    "HostProfiler",
    "Logger",
    "MetricsCollector",
    "TelemetrySession",
    "attribution_to_perfetto",
    "build_manifest",
    "build_report",
    "configure",
    "diff_reports",
    "format_attribution",
    "format_diff",
    "get_logger",
    "load_report",
    "read_manifest",
    "run_attribution",
    "to_perfetto",
    "write_manifest",
    "write_trace",
]
