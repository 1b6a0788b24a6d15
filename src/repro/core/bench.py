"""``repro bench`` — the performance baseline for the parallel layer.

Runs a fixed, representative workload set (every preset application ×
every paper memory system) three times through
:func:`repro.core.parallel.run_jobs`:

1. **serial** — ``jobs=1``, no cache: the pre-parallel-layer baseline;
2. **parallel** — ``jobs=N`` against a cold cache: pure fan-out;
3. **cached** — the same jobs again against the now-warm cache.

and writes a ``BENCH_parallel.json`` trajectory file with wall-clock
per phase, speedup vs serial, and the cache hit rate, so future changes
have a recorded perf baseline to compare against.  The serial and
parallel phases must produce bit-identical results (simulations are
deterministic); the bench asserts this and records it.
"""
# lint: ok-module[wall-clock] — measurement harness: wall-clock here times the
# host, never the simulation; simulated timing comes only from cycle counts.

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from tempfile import TemporaryDirectory

from ..apps.presets import preset
from ..config import MachineConfig
from ..mem.systems import PAPER_SYSTEMS
from ..obs.manifest import build_manifest
from ..obs.metrics import MetricsCollector
from ..runtime.context import Machine
from ..sim.trace import TracingMemory
from .parallel import JobSpec, ResultCache, resolve_jobs, run_jobs

#: Name of the trajectory file the bench emits by default.
BENCH_FILE = "BENCH_parallel.json"

#: Name of the observability-overhead trajectory file.
TRACE_BENCH_FILE = "BENCH_trace.json"

#: Name of the raw engine-throughput trajectory file.
ENGINE_BENCH_FILE = "BENCH_engine.json"

#: Name of the self-profiler overhead trajectory file.
PROFILE_BENCH_FILE = "BENCH_profile.json"

#: Name of the overhead-attribution overhead trajectory file.
ATTRIB_BENCH_FILE = "BENCH_attrib.json"


def bench_specs(
    scale: str = "default",
    config: MachineConfig | None = None,
    systems: tuple[str, ...] = PAPER_SYSTEMS,
) -> list[JobSpec]:
    """The fixed workload set: every preset app on every system."""
    cfg = config if config is not None else MachineConfig()
    return [
        JobSpec(factory=factory, system=system, config=cfg)
        for factory, _ in preset(scale).values()
        for system in systems
    ]


def run_bench(
    scale: str = "default",
    jobs: int | None = None,
    out: str | os.PathLike | None = BENCH_FILE,
    cache_dir: str | os.PathLike | None = None,
) -> dict:
    """Run the three-phase bench; write and return the trajectory dict.

    ``jobs=None`` uses one worker per CPU.  ``cache_dir=None`` uses a
    throwaway temporary directory so the bench always starts cold.
    ``out=None`` skips writing the JSON file.
    """
    nworkers = resolve_jobs(jobs)
    specs = bench_specs(scale)

    t0 = time.perf_counter()
    serial = run_jobs(specs, jobs=1, cache=None)
    serial_s = time.perf_counter() - t0

    with TemporaryDirectory() as tmp:
        cache = ResultCache(cache_dir if cache_dir is not None else tmp)
        t0 = time.perf_counter()
        parallel = run_jobs(specs, jobs=nworkers, cache=cache)
        parallel_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        cached = run_jobs(specs, jobs=nworkers, cache=cache)
        cached_s = time.perf_counter() - t0

    identical = all(
        a.result == b.result == c.result for a, b, c in zip(serial, parallel, cached)
    )
    assert identical, "parallel/cached results diverged from serial baseline"
    cache_hits = sum(1 for job in cached if job.cached)

    def speedup(phase_s: float) -> float:
        return serial_s / phase_s if phase_s > 0 else float("inf")

    doc = {
        "bench": "parallel-study-engine",
        "scale": scale,
        "jobs": nworkers,
        "cpu_count": os.cpu_count(),
        "n_runs": len(specs),
        "simulated_cycles": sum(job.result.total_time for job in serial),
        "phases": {
            "serial": {"wall_s": round(serial_s, 4), "speedup": 1.0},
            "parallel": {"wall_s": round(parallel_s, 4), "speedup": round(speedup(parallel_s), 3)},
            "cached": {"wall_s": round(cached_s, 4), "speedup": round(speedup(cached_s), 3)},
        },
        "speedup": round(max(speedup(parallel_s), speedup(cached_s)), 3),
        "cache_hit_rate": round(cache_hits / len(specs), 4) if specs else 0.0,
        "results_identical": identical,
    }
    if out is not None:
        Path(out).write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def run_engine_bench(
    scale: str = "default",
    nprocs: int = 16,
    reps: int = 3,
    systems: tuple[str, ...] = PAPER_SYSTEMS,
    out: str | os.PathLike | None = ENGINE_BENCH_FILE,
    extra: dict | None = None,
) -> dict:
    """Measure raw engine throughput: simulated events per wall second.

    Runs the whole preset suite (every application x every paper memory
    system) *in-process* — no worker pool, no result cache — because the
    quantity of interest is the scheduler/memory-system hot path itself.
    The suite executes ``reps`` times and the best rep is kept (the
    stable estimator on a noisy host); rep 1 additionally warms
    allocator and bytecode caches.  Verification is skipped: it is
    host-side numpy work that would dilute the engine measurement (the
    suite's correctness is pinned by the test battery).

    Absolute events/sec is machine- and load-dependent.  Trajectory
    docs are only comparable like-for-like: same host class, same
    ``scale``/``nprocs``, ideally interleaved measurement (see the
    ``seed_comparison`` block the committed baseline carries).
    """
    cfg = MachineConfig(nprocs=nprocs)
    apps = preset(scale)
    walls: list[float] = []
    events = 0
    for _ in range(max(1, reps)):
        t0 = time.perf_counter()
        total = 0
        for factory, _ in apps.values():
            for system in systems:
                app = factory()
                machine = Machine(cfg, system)
                app.setup(machine)
                total += machine.run(app.worker).ops
        walls.append(time.perf_counter() - t0)
        events = total
    best = min(walls)
    doc = {
        "bench": "engine-throughput",
        "scale": scale,
        "nprocs": nprocs,
        "systems": list(systems),
        "reps": len(walls),
        "events": events,
        "wall_s": round(best, 4),
        "wall_s_all_reps": [round(w, 4) for w in walls],
        "events_per_sec": round(events / best, 1) if best > 0 else None,
        "cpu_count": os.cpu_count(),
    }
    if extra:
        doc.update(extra)
    if out is not None:
        Path(out).write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def check_engine_regression(
    doc: dict, baseline: dict, tolerance: float = 0.2
) -> tuple[bool, str]:
    """Compare a fresh engine-bench doc against a committed baseline.

    Returns ``(ok, message)``; ``ok`` is False when the fresh
    events/sec fell more than ``tolerance`` below the baseline's.
    Docs measured at a different scale or machine size are not
    comparable — that case passes with an explanatory message rather
    than failing on apples-to-oranges numbers.
    """
    for key in ("scale", "nprocs"):
        if doc.get(key) != baseline.get(key):
            return True, (
                f"baseline not comparable ({key}: {baseline.get(key)!r} vs "
                f"{doc.get(key)!r}); regression check skipped"
            )
    base = baseline.get("events_per_sec") or 0.0
    cur = doc.get("events_per_sec") or 0.0
    if base <= 0:
        return True, "baseline carries no events/sec; regression check skipped"
    ratio = cur / base
    msg = (
        f"engine throughput {cur:,.0f} ev/s vs baseline {base:,.0f} ev/s "
        f"({ratio:.2f}x, tolerance -{tolerance:.0%})"
    )
    if ratio < 1.0 - tolerance:
        return False, "REGRESSION: " + msg
    return True, msg


def format_engine_bench(doc: dict) -> str:
    """Human-readable summary of an engine-throughput trajectory."""
    lines = [
        f"engine throughput: {doc['events']:,} simulated events "
        f"({doc['scale']} scale, P={doc['nprocs']}, "
        f"{len(doc['systems'])} systems), best of {doc['reps']}",
        f"  wall {doc['wall_s']:.3f}s -> {doc['events_per_sec']:,.0f} events/sec",
    ]
    seed = doc.get("seed_comparison")
    if seed:
        lines.append(
            f"  vs seed engine ({seed.get('commit', '?')}): "
            f"{seed.get('speedup_best', '?')}x best, "
            f"{seed.get('speedup_median', '?')}x median "
            f"({seed.get('methodology', '')})"
        )
    return "\n".join(lines)


def _observed_run(factory, system: str, cfg: MachineConfig, mode: str, interval: float):
    """One in-process run with the given observability mode attached."""
    app = factory()
    machine = Machine(cfg, system)
    app.setup(machine)
    if mode in ("trace", "both"):
        TracingMemory.attach(machine)
    if mode in ("metrics", "both"):
        MetricsCollector.attach(machine, interval=interval)
    t0 = time.perf_counter()
    result = machine.run(app.worker)
    return time.perf_counter() - t0, result


#: Observability modes measured by :func:`run_trace_bench`.
TRACE_MODES = ("plain", "trace", "metrics", "both")


def run_trace_bench(
    scale: str = "smoke",
    system: str = "RCinv",
    repeats: int = 3,
    interval: float = 1000.0,
    out: str | os.PathLike | None = TRACE_BENCH_FILE,
) -> dict:
    """Measure tracing/metrics overhead against untraced runs.

    Runs the preset IS workload on ``system`` under each observability
    mode (none / tracer / metrics / both) ``repeats`` times, keeps the
    best wall-clock per mode (the stable estimator on a noisy host), and
    writes a ``BENCH_trace.json`` trajectory with the overhead ratios
    and an embedded run manifest.  Simulated results must be identical
    across modes — observability is timing-transparent by design.
    """
    cfg = MachineConfig()
    factory, _ = preset(scale)["IS"]
    walls: dict[str, float] = {}
    totals: dict[str, float] = {}
    ops = 0
    for mode in TRACE_MODES:
        best = float("inf")
        for _ in range(max(1, repeats)):
            wall, result = _observed_run(factory, system, cfg, mode, interval)
            best = min(best, wall)
        walls[mode] = best
        totals[mode] = result.total_time
        ops = result.ops
    assert len(set(totals.values())) == 1, (
        f"observability changed simulated time: {totals}"
    )
    base = walls["plain"]

    def ratio(mode: str) -> float:
        return walls[mode] / base if base > 0 else float("inf")

    doc = {
        "bench": "observability-overhead",
        "scale": scale,
        "system": system,
        "repeats": repeats,
        "interval": interval,
        "events": ops,
        "simulated_cycles": totals["plain"],
        "modes": {
            mode: {"wall_s": round(walls[mode], 4), "ratio": round(ratio(mode), 3)}
            for mode in TRACE_MODES
        },
        "manifest": build_manifest(
            "trace-bench",
            config=cfg,
            app="IS",
            systems=[system],
            wall_seconds=sum(walls.values()),
        ),
    }
    if out is not None:
        Path(out).write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def format_trace_bench(doc: dict) -> str:
    """Human-readable summary of an observability-overhead trajectory."""
    lines = [
        f"observability overhead: IS ({doc['scale']} scale) on {doc['system']}, "
        f"best of {doc['repeats']}",
        f"{'mode':>10s} {'wall (s)':>10s} {'ratio':>7s}",
    ]
    for name, mode in doc["modes"].items():
        lines.append(f"{name:>10s} {mode['wall_s']:>10.4f} {mode['ratio']:>6.2f}x")
    return "\n".join(lines)


def run_profile_bench(
    scale: str = "default",
    nprocs: int = 16,
    reps: int = 5,
    systems: tuple[str, ...] = PAPER_SYSTEMS,
    out: str | os.PathLike | None = PROFILE_BENCH_FILE,
) -> dict:
    """Measure self-profiler overhead and record the sampled attribution.

    Runs the engine-bench workload (every preset app x every paper
    system, in-process) plain and with the :class:`HostProfiler` stack
    sampler armed around ``machine.run``, **alternating the two modes
    per matrix cell** so host noise hits both equally, then takes the
    *median* of the per-rep ratios (a best-rep-per-mode ratio lets one
    mode cherry-pick its luckiest rep; the median of paired ratios is
    stable).  Asserts that the profiled runs produce identical simulated
    results (sampling only reads frames; bit-identity is pinned harder
    by tests/test_profile.py), and embeds the per-component attribution
    pooled over every profiled run — sample shares and their count, the
    measured answer to "where does host time go?".
    """
    from ..obs.profile import COMPONENTS, HostProfiler

    cfg = MachineConfig(nprocs=nprocs)
    apps = preset(scale)
    walls = {"plain": float("inf"), "profiled": float("inf")}
    prof = HostProfiler()
    events = 0
    identical = True
    ratios = []
    for _rep in range(max(1, reps)):
        rep_walls = {"plain": 0.0, "profiled": 0.0}
        outcomes: dict[str, list] = {"plain": [], "profiled": []}
        total_ops = 0
        for factory, _ in apps.values():
            for system in systems:
                for mode in ("plain", "profiled"):
                    app = factory()
                    machine = Machine(cfg, system)
                    app.setup(machine)
                    t0 = time.perf_counter()
                    if mode == "profiled":
                        with prof:
                            result = machine.run(app.worker)
                    else:
                        result = machine.run(app.worker)
                    rep_walls[mode] += time.perf_counter() - t0
                    if mode == "plain":
                        total_ops += result.ops
                    outcomes[mode].append((result.total_time, result.ops))
        events = total_ops
        identical = identical and outcomes["plain"] == outcomes["profiled"]
        if rep_walls["plain"] > 0:
            ratios.append(rep_walls["profiled"] / rep_walls["plain"])
        for mode in walls:
            walls[mode] = min(walls[mode], rep_walls[mode])
    assert identical, "profiler changed simulated results"
    ratio = sorted(ratios)[len(ratios) // 2] if ratios else float("inf")
    attribution = prof.to_dict()
    doc = {
        "bench": "profiler-overhead",
        "scale": scale,
        "nprocs": nprocs,
        "systems": list(systems),
        "reps": max(1, reps),
        "events": events,
        "plain_wall_s": round(walls["plain"], 4),
        "profiled_wall_s": round(walls["profiled"], 4),
        "overhead_ratio": round(ratio, 3),
        "rep_ratios": [round(r, 3) for r in ratios],
        "results_identical": identical,
        "sampled": True,
        "samples": attribution["samples"],
        "interval_s": attribution["interval_s"],
        "attribution": {
            name: {key: attribution["components"][name][key] for key in ("ns", "samples", "pct")}
            for name in COMPONENTS
        },
        "cpu_count": os.cpu_count(),
    }
    if out is not None:
        Path(out).write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def format_profile_bench(doc: dict) -> str:
    """Human-readable summary of a profiler-overhead trajectory."""
    lines = [
        f"profiler overhead: {doc['events']:,} events ({doc['scale']} scale, "
        f"P={doc['nprocs']}, {len(doc['systems'])} systems), median of {doc['reps']}",
        f"  plain {doc['plain_wall_s']:.3f}s, profiled {doc['profiled_wall_s']:.3f}s "
        f"-> {doc['overhead_ratio']:.2f}x",
        f"{'component':>10s} {'share':>7s}  (sampled, {doc['samples']:,} samples)",
    ]
    for name, comp in doc["attribution"].items():
        lines.append(f"{name:>10s} {comp['pct']:>6.1f}%")
    return "\n".join(lines)


def run_attrib_bench(
    scale: str = "default",
    nprocs: int = 16,
    reps: int = 5,
    systems: tuple[str, ...] = PAPER_SYSTEMS,
    out: str | os.PathLike | None = ATTRIB_BENCH_FILE,
) -> dict:
    """Measure :class:`AttributionCollector` overhead (interleaved A/B).

    Same protocol as :func:`run_profile_bench`: every preset app x every
    paper system, alternating plain and attributed runs per matrix cell
    so host noise hits both modes equally, median of the per-rep ratios.
    Asserts the attributed runs produce identical simulated results
    *and* that attribution was exact (per-category attributed cycles
    equal the ``SimResult`` totals) on every cell of the first rep —
    the bench doubles as an end-to-end invariant check at full scale.
    """
    from ..obs.attrib import OVERHEAD_CATEGORIES, AttributionCollector

    cfg = MachineConfig(nprocs=nprocs)
    apps = preset(scale)
    walls = {"plain": float("inf"), "attributed": float("inf")}
    events = 0
    identical = True
    exact = True
    ratios: list[float] = []
    cells = 0
    for rep in range(max(1, reps)):
        rep_walls = {"plain": 0.0, "attributed": 0.0}
        outcomes: dict[str, list] = {"plain": [], "attributed": []}
        total_ops = 0
        for factory, _ in apps.values():
            for system in systems:
                for mode in ("plain", "attributed"):
                    app = factory()
                    machine = Machine(cfg, system)
                    app.setup(machine)
                    collector = (
                        AttributionCollector.attach(machine) if mode == "attributed" else None
                    )
                    t0 = time.perf_counter()
                    result = machine.run(app.worker)
                    rep_walls[mode] += time.perf_counter() - t0
                    if mode == "plain":
                        total_ops += result.ops
                    outcomes[mode].append((result.total_time, result.ops))
                    if collector is not None and rep == 0:
                        cells += 1
                        totals = collector.proc_totals()
                        for cat in OVERHEAD_CATEGORIES:
                            for p, proc in enumerate(result.procs):
                                if totals[cat][p] != getattr(proc, cat):
                                    exact = False
        events = total_ops
        identical = identical and outcomes["plain"] == outcomes["attributed"]
        if rep_walls["plain"] > 0:
            ratios.append(rep_walls["attributed"] / rep_walls["plain"])
        for mode in walls:
            walls[mode] = min(walls[mode], rep_walls[mode])
    assert identical, "attribution collector changed simulated results"
    assert exact, "attribution was not exact on some matrix cell"
    ratio = sorted(ratios)[len(ratios) // 2] if ratios else float("inf")
    doc = {
        "bench": "attribution-overhead",
        "scale": scale,
        "nprocs": nprocs,
        "systems": list(systems),
        "reps": max(1, reps),
        "events": events,
        "cells": cells,
        "plain_wall_s": round(walls["plain"], 4),
        "attributed_wall_s": round(walls["attributed"], 4),
        "overhead_ratio": round(ratio, 3),
        "rep_ratios": [round(r, 3) for r in ratios],
        "results_identical": identical,
        "attribution_exact": exact,
        "cpu_count": os.cpu_count(),
    }
    if out is not None:
        Path(out).write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def format_attrib_bench(doc: dict) -> str:
    """Human-readable summary of an attribution-overhead trajectory."""
    return "\n".join(
        [
            f"attribution overhead: {doc['events']:,} events ({doc['scale']} scale, "
            f"P={doc['nprocs']}, {len(doc['systems'])} systems), median of {doc['reps']}",
            f"  plain {doc['plain_wall_s']:.3f}s, attributed {doc['attributed_wall_s']:.3f}s "
            f"-> {doc['overhead_ratio']:.2f}x",
            f"  results identical: {doc['results_identical']}, "
            f"attribution exact on all {doc['cells']} cells: {doc['attribution_exact']}",
        ]
    )


def format_bench(doc: dict) -> str:
    """Human-readable summary of a bench trajectory."""
    lines = [
        f"bench: {doc['n_runs']} runs ({doc['scale']} scale) with "
        f"{doc['jobs']} worker(s) on a {doc['cpu_count']}-CPU host",
        f"{'phase':>10s} {'wall (s)':>10s} {'speedup':>9s}",
    ]
    for name, phase in doc["phases"].items():
        lines.append(f"{name:>10s} {phase['wall_s']:>10.3f} {phase['speedup']:>8.2f}x")
    lines.append(
        f"cache hit rate {100 * doc['cache_hit_rate']:.0f}%, "
        f"results identical: {doc['results_identical']}"
    )
    return "\n".join(lines)


__all__ = [
    "ATTRIB_BENCH_FILE",
    "BENCH_FILE",
    "ENGINE_BENCH_FILE",
    "PROFILE_BENCH_FILE",
    "TRACE_BENCH_FILE",
    "bench_specs",
    "check_engine_regression",
    "format_attrib_bench",
    "format_bench",
    "format_engine_bench",
    "format_profile_bench",
    "format_trace_bench",
    "run_attrib_bench",
    "run_bench",
    "run_engine_bench",
    "run_profile_bench",
    "run_trace_bench",
]
