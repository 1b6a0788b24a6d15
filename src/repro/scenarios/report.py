"""The scenario matrix runner and the overhead-degradation report.

``run_scenario_matrix`` runs scenario x application x memory-system
over the process-pool layer (one flat :func:`~repro.core.parallel.run_jobs`
call, so ``--jobs`` parallelism and the :class:`ResultCache` span the
whole matrix).  ``build_report`` turns the runs into the degradation
report: per scenario and application, each real system's stall
decomposition against the z-machine ideal, plus how much the scenario
moved every system relative to the clean ``baseline`` scenario.

``repro scenario run`` writes the committed ``BENCH_scenarios.json``
baseline from this report; ``docs/scenarios.md`` documents how to read
it.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from ..apps.presets import resolve_apps
from ..config import MachineConfig
from ..core.parallel import JobResult, JobSpec, ResultCache, run_jobs
from ..core.study import SystemResult
from ..mem.systems import PAPER_SYSTEMS
from ..obs.manifest import build_manifest
from .registry import SCENARIO_NAMES, get_scenario

#: The committed degradation baseline at the repo root.
SCENARIO_BENCH_FILE = "BENCH_scenarios.json"

#: Report format version.
REPORT_SCHEMA = 1


def run_scenario_matrix(
    scenarios: list[str] | None = None,
    config: MachineConfig | None = None,
    scale: str = "small",
    apps: list[str] | None = None,
    systems: tuple[str, ...] = PAPER_SYSTEMS,
    overrides: dict[str, float | int] | None = None,
    verify: bool = True,
    jobs: int | None = 1,
    cache: ResultCache | None = None,
) -> dict:
    """Run the scenario matrix and return the degradation report.

    ``scenarios`` defaults to every registered scenario and ``apps`` to
    the scale's preset (each name goes through
    :func:`~repro.apps.presets.resolve_apps`, so ``all`` and aliases
    work); knob ``overrides`` apply to every selected scenario that has
    the knob's name (mixing scenarios with ``--set`` on knobs only some of them
    define is an error, to avoid silent typos).  The ``baseline``
    scenario is always included — the report's deltas need it.
    """
    names = list(scenarios) if scenarios else list(SCENARIO_NAMES)
    if "baseline" not in names:
        names.insert(0, "baseline")
    base_cfg = config if config is not None else MachineConfig()
    apps_preset = {}
    for app in apps or ["all"]:
        apps_preset.update(resolve_apps(app, scale))

    specs: list[JobSpec] = []
    index: list[tuple[str, str, str]] = []  # (scenario, app, system)
    knob_values: dict[str, dict] = {}
    for name in names:
        scenario = get_scenario(name)
        scoped = {
            k: v for k, v in (overrides or {}).items()
            if any(knob.name == k for knob in scenario.knobs)
        } if name != "baseline" else {}
        if overrides and name != "baseline":
            unknown = set(overrides) - set(scoped)
            if len(names) == 2 and unknown:  # baseline + one explicit scenario
                raise ValueError(
                    f"scenario {name!r} has no knob(s) {', '.join(sorted(unknown))}"
                )
        knob_values[name] = scenario.resolve_knobs(scoped)
        scn_cfg = scenario.apply(base_cfg, scoped)
        for app_name, (factory, _reuse) in apps_preset.items():
            for system in systems:
                specs.append(
                    JobSpec(factory=factory, system=system, config=scn_cfg, verify=verify)
                )
                index.append((name, app_name, system))

    t0 = time.perf_counter()
    results = run_jobs(specs, jobs=jobs, cache=cache)
    wall = time.perf_counter() - t0
    manifest = build_manifest(
        "scenario-matrix",
        config=base_cfg,
        systems=list(systems),
        wall_seconds=wall,
        jobs=results,
        cache=cache,
        extra={"scenarios": names, "scale": scale},
    )
    return build_report(
        index, results, knob_values,
        scale=scale, nprocs=base_cfg.nprocs, systems=list(systems),
        manifest=manifest,
    )


def build_report(
    index: list[tuple[str, str, str]],
    results: list[JobResult],
    knob_values: dict[str, dict],
    *,
    scale: str,
    nprocs: int,
    systems: list[str],
    manifest: dict | None = None,
) -> dict:
    """Assemble the degradation report from matrix runs.

    Per scenario/app/system: the absolute stall decomposition, the
    slowdown against the z-machine ideal *of the same scenario* (the
    paper's overhead metric, under degradation), and — for non-baseline
    scenarios — the slowdown and overhead-percentage delta against the
    same app/system under ``baseline``.
    """
    runs: dict[tuple[str, str, str], SystemResult] = {}
    for (scenario, app, system), job in zip(index, results):
        runs[(scenario, app, system)] = SystemResult.from_job(job)

    scenarios_doc: dict[str, dict] = {}
    names = list(dict.fromkeys(name for name, _, _ in index))
    apps = list(dict.fromkeys(app for _, app, _ in index))
    for name in names:
        apps_doc: dict[str, dict] = {}
        for app in apps:
            z = runs.get((name, app, "z-mc"))
            systems_doc: dict[str, dict] = {}
            for system in systems:
                res = runs.get((name, app, system))
                if res is None:
                    continue
                entry = {
                    "total_time": res.total_time,
                    "busy": res.busy,
                    "read_stall": res.read_stall,
                    "write_stall": res.write_stall,
                    "buffer_flush": res.buffer_flush,
                    "sync_wait": res.sync_wait,
                    "overhead_pct": round(res.overhead_pct, 3),
                }
                if z is not None and z.total_time and system != "z-mc":
                    entry["slowdown_vs_z"] = round(res.total_time / z.total_time, 4)
                base = runs.get(("baseline", app, system))
                if name != "baseline" and base is not None and base.total_time:
                    entry["vs_baseline"] = {
                        "slowdown": round(res.total_time / base.total_time, 4),
                        "overhead_pct_delta": round(
                            res.overhead_pct - base.overhead_pct, 3
                        ),
                    }
                systems_doc[system] = entry
            apps_doc[app] = {"systems": systems_doc}
        scenarios_doc[name] = {"knobs": knob_values.get(name, {}), "apps": apps_doc}

    report = {
        "schema": REPORT_SCHEMA,
        "bench": "scenario-degradation",
        "scale": scale,
        "nprocs": nprocs,
        "systems": systems,
        "scenarios": scenarios_doc,
    }
    if manifest is not None:
        report["manifest"] = manifest
    return report


def format_report(report: dict) -> str:
    """Human-readable table of the degradation report."""
    lines: list[str] = []
    lines.append(
        f"scenario degradation report (scale={report['scale']}, "
        f"P={report['nprocs']})"
    )
    for name, scn in report["scenarios"].items():
        knobs = scn.get("knobs") or {}
        knob_txt = ", ".join(f"{k}={v}" for k, v in knobs.items())
        lines.append("")
        lines.append(f"== {name}" + (f"  [{knob_txt}]" if knob_txt else ""))
        header = (
            f"  {'app':<10} {'system':<8} {'total':>12} {'ovh%':>7} "
            f"{'vs z-mc':>8} {'vs base':>8}"
        )
        lines.append(header)
        for app, app_doc in scn["apps"].items():
            for system, entry in app_doc["systems"].items():
                vs_z = entry.get("slowdown_vs_z")
                vs_b = (entry.get("vs_baseline") or {}).get("slowdown")
                lines.append(
                    f"  {app:<10} {system:<8} {entry['total_time']:>12.1f} "
                    f"{entry['overhead_pct']:>7.2f} "
                    f"{vs_z if vs_z is not None else '-':>8} "
                    f"{vs_b if vs_b is not None else '-':>8}"
                )
    return "\n".join(lines)


def write_report(report: dict, out: str | os.PathLike = SCENARIO_BENCH_FILE) -> Path:
    """Write the report as JSON; returns the path written."""
    path = Path(out)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


__all__ = [
    "REPORT_SCHEMA",
    "SCENARIO_BENCH_FILE",
    "build_report",
    "format_report",
    "run_scenario_matrix",
    "write_report",
]
