"""``repro bench`` — the cache bench and the profiler-overhead bench.

The default bench runs a fixed, representative workload set (every
preset application × every paper memory system) three times through
:func:`repro.core.parallel.run_jobs`:

1. **serial** — ``jobs=1``, no cache: the pre-parallel-layer baseline;
2. **parallel** — ``jobs=N`` against a cold cache: pure fan-out;
3. **cached** — the same jobs again against the now-warm cache.

and writes a ``BENCH_parallel.json`` trajectory file with wall-clock
per phase, speedup vs serial, and the cache hit rate.  The serial and
parallel phases must produce bit-identical results (simulations are
deterministic); the bench asserts this and records it.

``--profile`` (:func:`run_profile_bench`) measures the host stack
sampler's cost, which perfbench never arms.  Engine throughput and
observer cost are perfbench's ``ev_per_s`` and ``obs_ratio``; see
:mod:`repro.core.perf` for the ledger and the A/B gate.
"""
# lint: ok-module[wall-clock] — measurement harness: wall-clock here times the
# host, never the simulation; simulated timing comes only from cycle counts.

from __future__ import annotations

import json
import os
import time
from functools import partial
from pathlib import Path
from tempfile import TemporaryDirectory

from ..apps.presets import preset
from ..config import MachineConfig
from ..mem.systems import PAPER_SYSTEMS
from ..runtime.context import Machine
from .parallel import JobSpec, ResultCache, resolve_jobs, run_jobs
from .perf import paired

#: Name of the trajectory file the bench emits by default.
BENCH_FILE = "BENCH_parallel.json"

#: Name of the self-profiler overhead trajectory file.
PROFILE_BENCH_FILE = "BENCH_profile.json"


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


def _timed_run(factory, system: str, cfg: MachineConfig, prof=None):
    """One in-process run: ``(wall s, (cycles, events))``.

    ``prof`` (a :class:`HostProfiler`) is armed around ``machine.run``.
    """
    app = factory()
    machine = Machine(cfg, system)
    app.setup(machine)
    t0 = time.perf_counter()
    if prof is None:
        result = machine.run(app.worker)
    else:
        with prof:
            result = machine.run(app.worker)
    return time.perf_counter() - t0, (result.total_time, result.ops)


def run_profile_bench(
    scale: str = "default",
    nprocs: int = 16,
    reps: int = 5,
    systems: tuple[str, ...] = PAPER_SYSTEMS,
    out: str | os.PathLike | None = PROFILE_BENCH_FILE,
) -> dict:
    """Measure self-profiler overhead and record the sampled attribution.

    Runs every preset app x every paper system in-process, plain and
    with the :class:`HostProfiler` stack sampler armed around
    ``machine.run``, as ``reps`` back-to-back :func:`paired` runs per
    matrix cell (alternating which mode goes first) so host noise hits
    both equally, then takes the *median* of the per-rep ratios (a
    best-rep-per-mode ratio lets one mode cherry-pick its luckiest rep;
    the median of paired ratios is stable).  Asserts that the profiled
    runs produce identical simulated results (sampling only reads
    frames; bit-identity is pinned harder by tests/test_profile.py),
    and embeds the per-component attribution pooled over every profiled
    run — sample shares and their count, the measured answer to "where
    does host time go?".
    """
    from ..obs.profile import COMPONENTS, HostProfiler

    cfg = MachineConfig(nprocs=nprocs)
    prof = HostProfiler()
    reps = max(1, reps)
    plain = [0.0] * reps
    profiled = [0.0] * reps
    events = 0
    identical = True
    for factory, _ in preset(scale).values():
        for system in systems:
            pairs = paired(
                partial(_timed_run, factory, system, cfg),
                partial(_timed_run, factory, system, cfg, prof),
                reps,
            )
            for rep, ((wall_a, outcome_a), (wall_b, outcome_b)) in enumerate(pairs):
                plain[rep] += wall_a
                profiled[rep] += wall_b
                identical = identical and outcome_a == outcome_b
            events += outcome_a[1]
    assert identical, "profiler changed simulated results"
    ratios = [b / a for a, b in zip(plain, profiled) if a > 0]
    ratio = sorted(ratios)[len(ratios) // 2] if ratios else float("inf")
    attribution = prof.to_dict()
    doc = {
        "bench": "profiler-overhead",
        "scale": scale,
        "nprocs": nprocs,
        "systems": list(systems),
        "reps": reps,
        "events": events,
        "plain_wall_s": round(min(plain), 4),
        "profiled_wall_s": round(min(profiled), 4),
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
    "BENCH_FILE",
    "PROFILE_BENCH_FILE",
    "bench_specs",
    "format_bench",
    "format_profile_bench",
    "run_bench",
    "run_profile_bench",
]
