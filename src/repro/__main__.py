"""Command-line interface: ``python -m repro <command>``.

Commands
--------
study    run one application (or all) across memory systems and print
         the Figure 2-5 style breakdown (optionally CSV/JSON)
table1   run the four applications on the z-machine and print Table 1
fig1     print the Figure 1 inherent-cost-vs-overhead scenario
claims   evaluate the paper's qualitative claims on fresh runs
trace    run one application with the tracer attached and export a
         Perfetto/Chrome trace (and optionally interval metrics)
profile  build and run one application under the host stack sampler and
         print the per-component wall-time attribution (setup / wheel /
         app / mem / network / sync / observer / dispatch),
         optionally as a Perfetto flame view
attribute run one application under exact overhead attribution and
         print ranked stall-cycle tables by shared region / sync object /
         phase / home node (``--vs`` adds an inline overhead-delta diff
         against another system or scenario)
diff     decompose the overhead delta between two saved attribution
         reports (from ``repro attribute --out``)
perf     perfbench ledger and speed gate: ``perf record`` appends saved
         perfbench/run.py output to benchmarks/history.jsonl keyed by
         commit; ``perf report`` prints each series' trend and latest
         delta; ``perf compare BASE_DIR`` runs interleaved perfbench
         pairs against another checkout and fails on a regression
check    run the correctness analyses (happens-before race detection +
         protocol invariant checking) over an apps × systems matrix;
         exits nonzero on any finding
fuzz     differential fuzzing: seeded random draws (app × system ×
         nprocs × scenario × observer stack) whose bare run is
         cross-checked against the plain-heapq reference engine and the
         observed run, plus dynamic-vs-static checker agreement;
         mismatches are delta-debug shrunk into repro files and every
         draw is recorded in a resumable corpus ledger
scenario named degradation scenarios (limping nodes, slow links, bursty
         load, ...): list / describe them, or run the scenario matrix
         and emit the overhead-degradation report (BENCH_scenarios.json)
systems  list available memory systems and applications
cache    show or clear the on-disk result cache

``study``, ``table1``, ``claims``, ``check``, ``fuzz`` and ``scenario
run`` accept ``--jobs N`` to fan independent runs out over N worker
processes (0 = one per CPU), ``--no-cache`` to bypass the on-disk
result cache and
``--telemetry-out PATH`` to persist per-job heartbeat records as
replayable JSONL; see docs/performance.md.  Multi-job runs render live
per-job progress (with ETA) on the diagnostic channel unless
``--quiet``.  ``study``, ``table1``, ``claims`` and ``trace`` accept
``--manifest PATH`` to record a structured run manifest; the global
``--verbose``/``--quiet``/``--json`` flags control diagnostics and
propagate into pool workers (see docs/observability.md).

Every command names its cells one way: an application is a canonical
name, an alias or ``all`` (resolved by ``repro.apps.resolve_apps``), and
an unknown application or memory system exits with the list of choices.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from pathlib import Path

from . import MachineConfig, figure1_scenario, run_study
from .analysis import format_claims, format_figure, format_table1, fuzz, standard_claims
from .analysis.checkers import check_matrix, execute_check, format_outcomes
from .analysis.report import studies_to_csv, studies_to_json, table1_to_csv
from .apps import SCALES, default_scale, resolve_apps, run_machine
from .core import perf
from .core.parallel import ResultCache, run_jobs
from .core.table1 import table1
from .mem.systems import PAPER_SYSTEMS, SYSTEM_REGISTRY
from .obs import MetricsCollector, configure, get_logger, to_perfetto, write_trace
from .obs import telemetry
from .obs.attrib import (
    diff_reports,
    format_attribution,
    format_diff,
    load_report,
    run_attribution,
)
from .obs.manifest import build_manifest, write_manifest
from .obs.profile import HostProfiler
from .obs.timeline import attribution_to_perfetto
from .scenarios import (
    SCENARIO_BENCH_FILE,
    SCENARIO_NAMES,
    apply_scenario,
    format_report,
    get_scenario,
    parse_overrides,
    run_scenario_matrix,
    write_report,
)
from .sim.trace import TracingMemory

def _config(args: argparse.Namespace) -> MachineConfig:
    return MachineConfig(nprocs=args.nprocs)


def _cache(args: argparse.Namespace) -> ResultCache | None:
    return None if args.no_cache else ResultCache.default()


def _apps(name: str, scale: str = "default") -> dict:
    """The cells an app argument names at ``scale`` (see ``resolve_apps``);
    exits with the list of choices when ``name`` is not an app."""
    try:
        return resolve_apps(name, scale)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _check_systems(*systems: str) -> None:
    """Exit with the list of memory systems when any of ``systems`` is not one."""
    for system in systems:
        if system not in SYSTEM_REGISTRY:
            raise SystemExit(
                f"unknown memory system {system!r}; choose from "
                f"{', '.join(sorted(SYSTEM_REGISTRY))}"
            )


def _emit_manifest(path: str | None, manifests: list[dict], kind: str) -> None:
    """Write one manifest (or a wrapper around several) when requested."""
    if not path:
        return
    if len(manifests) == 1:
        doc = manifests[0]
    else:
        doc = dict(manifests[0])  # share the header (schema/host/fingerprint)
        doc["kind"] = kind
        doc["manifests"] = manifests
    write_manifest(path, doc)
    get_logger().info(f"manifest written to {path}")


def cmd_study(args: argparse.Namespace) -> int:
    log = get_logger()
    cfg = _config(args)
    systems = tuple(args.systems) if args.systems else PAPER_SYSTEMS
    _check_systems(*systems)
    cache = _cache(args)
    studies = []
    for name, (factory, _) in _apps(args.app, args.scale).items():
        log.debug(f"running study: {name}", systems=",".join(systems))
        studies.append(run_study(factory, cfg, systems=systems, jobs=args.jobs, cache=cache))
    if args.format == "csv":
        log.out(studies_to_csv(studies).rstrip("\n"))
    elif args.format == "json":
        log.out(studies_to_json(studies))
    else:
        for study in studies:
            log.out(format_figure(study))
            log.out()
    _emit_manifest(args.manifest, [s.manifest for s in studies], "study-set")
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    log = get_logger()
    cfg = _config(args)
    factories = {k: f for k, (f, _) in _apps(args.app).items()}
    rows, manifest = table1(factories, cfg, jobs=args.jobs, cache=_cache(args))
    if args.format == "csv":
        log.out(table1_to_csv(rows).rstrip("\n"))
    else:
        log.out(format_table1(rows))
    _emit_manifest(args.manifest, [manifest], "table1")
    return 0


def cmd_fig1(args: argparse.Namespace) -> int:
    log = get_logger()
    cfg = _config(args)
    log.out(f"{'system':8s} {'early stall':>12s} {'class':>10s} {'late stall':>12s} {'class':>10s}")
    for system in SYSTEM_REGISTRY:
        t = figure1_scenario(system, cfg)
        log.out(
            f"{t.system:8s} {t.early_read.stall:12.1f} {t.early_kind:>10s} "
            f"{t.late_read.stall:12.1f} {t.late_kind:>10s}"
        )
    return 0


def cmd_claims(args: argparse.Namespace) -> int:
    log = get_logger()
    cfg = _config(args)
    cache = _cache(args)
    all_hold = True
    manifests = []
    for name, (factory, reuse) in _apps(args.app).items():
        study = run_study(factory, cfg, jobs=args.jobs, cache=cache)
        manifests.append(study.manifest)
        checks = standard_claims(study, expect_reuse=reuse)
        log.out(f"== {name}")
        log.out(format_claims(checks))
        all_hold &= all(c.holds for c in checks)
    _emit_manifest(args.manifest, manifests, "claims")
    return 0 if all_hold else 1


def cmd_trace(args: argparse.Namespace) -> int:
    log = get_logger()
    cfg = _config(args)
    _check_systems(args.system)
    [(name, (factory, _))] = _apps(args.app).items()
    hooks = [partial(TracingMemory.attach, max_events=args.max_events)]
    if args.metrics:
        hooks.append(partial(MetricsCollector.attach, interval=args.interval))
    log.debug(f"tracing {name} on {args.system}", max_events=args.max_events)
    t0 = time.perf_counter()
    machine, result, tracer, *collectors = run_machine(
        factory(), args.system, cfg, verify=False, attach=hooks
    )
    wall = time.perf_counter() - t0
    log.info(
        f"{name} on {args.system}: {result.ops} ops, "
        f"{result.total_time:.0f} simulated cycles ({wall:.2f}s wall)"
    )
    if tracer.dropped:
        log.warn(f"{tracer.dropped} trace event(s) dropped; raise --max-events")
    hot = tracer.hottest_blocks(args.top)
    if hot and hot[0][1] > 0:
        log.out(f"hottest blocks by stall cycles (top {args.top}):")
        for block_name, stall in hot:
            log.out(f"  {block_name:<36s} {stall:>12.1f}")
    metrics = collectors[0].to_dict() if collectors else None
    doc = to_perfetto(
        tracer, cfg.nprocs, total_time=result.total_time, app=name,
        system=args.system, sync_names=machine.sync.sync_names(),
        metrics=metrics,
    )
    write_trace(args.out, doc)
    log.out(f"trace written to {args.out} ({len(doc['traceEvents'])} events)")
    if metrics is not None:
        Path(args.metrics).write_text(json.dumps(metrics, indent=2) + "\n")
        log.out(f"metrics written to {args.metrics} ({len(metrics['buckets'])} buckets)")
    if args.manifest:
        manifest = build_manifest(
            "trace",
            config=cfg,
            app=name,
            systems=[args.system],
            wall_seconds=wall,
            extra={
                "events_simulated": result.ops,
                "events_per_sec": round(result.ops / wall, 1) if wall > 0 else None,
                "trace_events": len(doc["traceEvents"]),
                "trace_dropped": tracer.dropped,
            },
        )
        _emit_manifest(args.manifest, [manifest], "trace")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    log = get_logger()
    cfg = _config(args)
    _check_systems(args.system)
    [(name, (factory, _))] = _apps(args.app, args.scale).items()
    with HostProfiler() as prof:
        _, result = run_machine(factory(), args.system, cfg, verify=False)
    log.info(
        f"{name} on {args.system}: {result.ops} ops, "
        f"{result.total_time:.0f} simulated cycles"
    )
    log.out(prof.table())
    if args.out:
        doc = prof.to_dict()
        doc.update(
            {"app": name, "system": args.system, "nprocs": cfg.nprocs, "ops": result.ops}
        )
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
        log.out(f"attribution written to {args.out}")
    if args.flame:
        write_trace(args.flame, prof.to_perfetto())
        log.out(f"flame view written to {args.flame}")
    return 0


def cmd_attribute(args: argparse.Namespace) -> int:
    log = get_logger()
    cfg = _config(args)
    _check_systems(args.system)
    [(name, (factory, _))] = _apps(args.app, args.scale).items()
    log.debug(f"attributing {name} on {args.system}", scale=args.scale)
    report, result = run_attribution(
        factory, args.system, cfg, app=name, scale=args.scale
    )
    log.info(
        f"{name} on {args.system}: {result.ops} ops, "
        f"{result.total_time:.0f} simulated cycles"
    )
    log.out(format_attribution(report, by=args.by, top=args.top))
    if not report["exact"]:
        log.warn(f"attribution residual nonzero: {json.dumps(report['residual'])}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        log.out(f"attribution report written to {args.out}")
    if args.perfetto:
        write_trace(args.perfetto, attribution_to_perfetto(report, top=args.top))
        log.out(f"attribution heatmap written to {args.perfetto}")
    if args.vs:
        if args.vs in SYSTEM_REGISTRY:
            # Same app, other memory system.
            other, _ = run_attribution(
                factory, args.vs, cfg, app=name, scale=args.scale
            )
        elif args.vs in SCENARIO_NAMES:
            # Same app and system, degraded machine.
            other, _ = run_attribution(
                factory, args.system, apply_scenario(args.vs, cfg),
                app=name, scale=args.scale, label=args.vs,
            )
        else:
            raise SystemExit(
                f"--vs expects a memory system ({', '.join(sorted(SYSTEM_REGISTRY))}) "
                f"or a scenario ({', '.join(SCENARIO_NAMES)}); got {args.vs!r}"
            )
        log.out("")
        log.out(format_diff(diff_reports(report, other), by=args.by, top=args.top))
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    log = get_logger()
    try:
        a = load_report(args.report_a)
        b = load_report(args.report_b)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise SystemExit(str(exc)) from None
    diff = diff_reports(a, b)
    log.out(format_diff(diff, by=args.by, top=args.top))
    if args.out:
        Path(args.out).write_text(json.dumps(diff, indent=2) + "\n")
        log.out(f"diff document written to {args.out}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    log = get_logger()
    cfg = _config(args)
    systems = tuple(args.systems) if args.systems else tuple(sorted(SYSTEM_REGISTRY))
    _check_systems(*systems)
    factories = {name: f for name, (f, _) in _apps(args.app, args.scale).items()}
    specs = check_matrix(factories, systems, cfg)
    outcomes = run_jobs(specs, jobs=args.jobs, cache=_cache(args), executor=execute_check)
    log.out(format_outcomes(outcomes))
    findings = sum(o.races.total + o.violation_total for o in outcomes)
    if findings:
        log.out(f"FAIL: {findings} finding(s) across {len(outcomes)} run(s)")
        return 1
    log.out(f"OK: {len(outcomes)} run(s), no races, no invariant violations")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    log = get_logger()
    if args.replay:
        draw, ev = fuzz.replay_repro(args.replay)
        log.out(f"replay {args.replay}: {draw.describe()} -> {ev.status}")
        for failure in ev.failures:
            log.out(f"  [{failure['oracle']}] {failure['detail']}")
        if ev.ok:
            log.out("mismatch no longer reproduces")
            return 0
        return 1
    oracles = tuple(args.oracle) if args.oracle else fuzz.ORACLES
    report = fuzz.run_fuzz(
        budget=args.budget,
        seed=args.seed,
        max_draws=args.max_draws,
        jobs=args.jobs,
        oracles=oracles,
        ledger=args.ledger,
        repro_dir=args.repro_dir,
        resume=not args.no_resume,
        cache=_cache(args),
    )
    log.out(report.describe())
    if args.out:
        Path(args.out).write_text(
            json.dumps(report.to_doc(), indent=1, sort_keys=True) + "\n"
        )
        log.out(f"fuzz report written to {args.out}")
    return 0 if report.clean else 1


def cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.static import load_baseline, repo_root, run_lint, write_baseline

    log = get_logger()
    root = Path(args.root).resolve() if args.root else repo_root()
    apps = args.apps or not args.core
    core = args.core or not args.apps
    report, app_reports = run_lint(apps=apps, core=core, root=root)

    baseline_path = Path(args.baseline)
    if not baseline_path.is_absolute():
        baseline_path = root / baseline_path
    if args.write_baseline:
        write_baseline(baseline_path, report)
        log.out(
            f"baseline written to {baseline_path} "
            f"({len({f.key() for f in report.findings})} accepted finding(s))"
        )
        return 0
    baseline = {} if args.no_baseline else load_baseline(baseline_path)
    new = report.new_against(set(baseline))
    stale = report.stale_baseline(set(baseline))

    doc = report.to_doc()
    doc["new"] = [f.key() for f in new]
    doc["stale_baseline"] = stale
    doc["apps"] = {
        a.path: {
            "classes": a.classes,
            "race_labels": sorted(a.race_labels),
            "summaries": {k: s.to_doc() for k, s in sorted(a.summaries.items())},
        }
        for a in app_reports
    }
    if args.report:
        Path(args.report).write_text(json.dumps(doc, indent=2) + "\n")
        log.out(f"findings report written to {args.report}")
    if args.format == "json":
        log.out(json.dumps(doc, indent=2))
    else:
        for f in new:
            log.out(f.describe())
        baselined = len(report.findings) - len(new)
        if baselined:
            log.out(f"{baselined} baselined finding(s) (see {baseline_path.name})")
        for f in report.unused_suppressions:
            log.out(f.describe())
        for key in stale:
            log.out(f"stale baseline entry (finding no longer produced): {key}")
        log.out(
            f"{report.files_scanned} file(s) scanned: {len(new)} new finding(s), "
            f"{len(report.suppressed)} suppressed, "
            f"{len(report.unused_suppressions)} unused suppression(s)"
        )
    failures = len(new)
    if args.strict:
        failures += len(report.unused_suppressions) + len(stale)
    return 1 if failures else 0


def cmd_scenario_list(args: argparse.Namespace) -> int:
    log = get_logger()
    width = max(len(n) for n in SCENARIO_NAMES)
    for name in SCENARIO_NAMES:
        log.out(f"{name:<{width}}  {get_scenario(name).summary}")
    return 0


def cmd_scenario_describe(args: argparse.Namespace) -> int:
    log = get_logger()
    try:
        scenario = get_scenario(args.name)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    log.out(f"{scenario.name}: {scenario.summary}")
    log.out("")
    log.out(scenario.description)
    if scenario.knobs:
        log.out("")
        log.out("knobs:")
        for knob in scenario.knobs:
            log.out(f"  {knob.name} = {knob.default}  ({knob.help})")
    cfg = _config(args)
    deg = scenario.degradation(cfg)
    log.out("")
    log.out(f"realised for P={cfg.nprocs}: {deg!r}")
    return 0


def cmd_scenario_run(args: argparse.Namespace) -> int:
    log = get_logger()
    cfg = _config(args)
    systems = tuple(args.systems) if args.systems else PAPER_SYSTEMS
    _check_systems(*systems)
    scenarios = list(args.scenario) if args.scenario else list(SCENARIO_NAMES)
    for name in scenarios:
        if name not in SCENARIO_NAMES:
            raise SystemExit(
                f"unknown scenario {name!r}; choose from {', '.join(SCENARIO_NAMES)}"
            )
    try:
        overrides = parse_overrides(args.set or [])
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    try:
        report = run_scenario_matrix(
            scenarios,
            config=cfg,
            scale=args.scale,
            apps=[args.app],
            systems=systems,
            overrides=overrides,
            jobs=args.jobs,
            cache=_cache(args),
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if args.format == "json":
        log.out(json.dumps(report, indent=2))
    else:
        log.out(format_report(report))
    if args.out:
        path = write_report(report, args.out)
        log.out(f"degradation report written to {path}")
    _emit_manifest(args.manifest, [report["manifest"]], "scenario-matrix")
    return 0


def cmd_perf_record(args: argparse.Namespace) -> int:
    log = get_logger()
    try:
        appended = perf.record(args.logs, history=args.history)
    except perf.PerfError as exc:
        log.error(f"perf record refused: {exc}")
        return 1
    log.out(
        f"recorded {len(appended)} point(s) into {args.history} "
        f"(from {len(args.logs)} log(s))"
    )
    for entry in appended:
        log.debug(f"  {entry['workload']}: {entry['metric']}={entry['value']}")
    return 0


def cmd_perf_report(args: argparse.Namespace) -> int:
    log = get_logger()
    entries = perf.load_history(args.history)
    if not entries:
        log.out(f"no ledger at {args.history}; run 'repro perf record' first")
        return 0
    report = perf.build_report(entries, perf.metric_table())
    if args.format == "json":
        log.out(json.dumps(report, indent=2))
    else:
        log.out(perf.format_report(report))
    return 0


def cmd_perf_compare(args: argparse.Namespace) -> int:
    log = get_logger()

    def runner(tree, workload):
        log.info(f"perfbench {workload} in {tree}")
        return perf.run_perfbench(tree, workload)

    try:
        result = perf.compare(args.base_dir, runner=runner)
    except perf.PerfError as exc:
        log.error(f"perf compare: {exc}")
        return 1
    log.out(perf.format_compare(result))
    return 1 if result["failed"] else 0


def cmd_systems(args: argparse.Namespace) -> int:
    log = get_logger()
    log.out(f"memory systems: {', '.join(sorted(SYSTEM_REGISTRY))}")
    log.out(f"applications:   {', '.join(default_scale())}")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    log = get_logger()
    cache = ResultCache.default()
    if args.clear:
        log.out(f"removed {cache.clear()} cached result(s) from {cache.directory}")
        return 0
    entries, size = cache.size()
    stats = cache.lifetime_stats()
    total = stats["hits"] + stats["misses"]
    log.out(f"cache directory: {cache.directory}")
    log.out(f"entries: {entries} ({size / 1024:.1f} KiB)")
    if total:
        log.out(
            f"lifetime: {stats['hits']} hit(s), {stats['misses']} miss(es) "
            f"({100.0 * stats['hits'] / total:.0f}% hit rate)"
        )
    else:
        log.out("lifetime: no recorded lookups yet")
    return 0


def _jobs_count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"jobs must be >= 0, got {value}")
    return value


def _add_parallel_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--jobs",
        type=_jobs_count,
        default=1,
        help="worker processes for independent runs (0 = one per CPU, default 1)",
    )
    sub.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache",
    )
    sub.add_argument(
        "--telemetry-out",
        default=None,
        metavar="PATH",
        help="write per-job heartbeat records (start/finish, events/sec, "
        "cache hits, ETA) as replayable JSONL to PATH",
    )


def _add_manifest_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="write a structured run manifest (JSON) to PATH",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="z-machine overhead benchmarking of shared-memory systems "
        "(ICPP 1995 reproduction)",
    )
    parser.add_argument("--nprocs", type=int, default=16, help="processor count (default 16)")
    parser.add_argument(
        "--verbose", action="store_true", help="show debug diagnostics on stderr"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress info diagnostics (warnings still shown)"
    )
    parser.add_argument(
        "--json", action="store_true", help="emit structured JSON log records on stdout"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_study = sub.add_parser("study", help="run an overhead study")
    p_study.add_argument("--app", default="all", help="application name or 'all'")
    p_study.add_argument(
        "--scale",
        choices=SCALES,
        default="default",
        help="workload preset; 'large' is ~10x default, sized for "
        "--nprocs 64/256 machines",
    )
    p_study.add_argument("--systems", nargs="*", help="memory systems (default: paper's five)")
    p_study.add_argument("--format", choices=("text", "csv", "json"), default="text")
    _add_parallel_flags(p_study)
    _add_manifest_flag(p_study)
    p_study.set_defaults(func=cmd_study)

    p_t1 = sub.add_parser("table1", help="regenerate Table 1 (z-machine)")
    p_t1.add_argument("--app", default="all")
    p_t1.add_argument("--format", choices=("text", "csv"), default="text")
    _add_parallel_flags(p_t1)
    _add_manifest_flag(p_t1)
    p_t1.set_defaults(func=cmd_table1)

    p_f1 = sub.add_parser("fig1", help="Figure 1 scenario across systems")
    p_f1.set_defaults(func=cmd_fig1)

    p_claims = sub.add_parser("claims", help="evaluate the paper's qualitative claims")
    p_claims.add_argument("--app", default="all")
    _add_parallel_flags(p_claims)
    _add_manifest_flag(p_claims)
    p_claims.set_defaults(func=cmd_claims)

    p_trace = sub.add_parser(
        "trace", help="export a Perfetto timeline (and interval metrics) for one run"
    )
    p_trace.add_argument("app", help="application name or alias (e.g. intsort, cholesky)")
    p_trace.add_argument("system", help="memory system (e.g. RCinv, z-mc)")
    p_trace.add_argument(
        "--out", default="trace.json", help="Perfetto trace output path (default trace.json)"
    )
    p_trace.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="also collect interval metrics and write them to PATH",
    )
    p_trace.add_argument(
        "--interval",
        type=float,
        default=1000.0,
        help="metrics bucket width in simulated cycles (default 1000)",
    )
    p_trace.add_argument(
        "--max-events",
        type=int,
        default=None,
        help=f"trace ring size (default {TracingMemory.DEFAULT_MAX_EVENTS})",
    )
    p_trace.add_argument(
        "--top",
        type=int,
        default=5,
        help="hottest blocks (by stall cycles) to print (default 5)",
    )
    _add_manifest_flag(p_trace)
    p_trace.set_defaults(func=cmd_trace)

    p_prof = sub.add_parser(
        "profile",
        help="self-profile one run: host wall-time attribution per simulator component",
    )
    p_prof.add_argument("app", help="application name or alias (e.g. intsort, cholesky)")
    p_prof.add_argument("system", help="memory system (e.g. RCinv, z-mc)")
    p_prof.add_argument(
        "--scale", choices=SCALES, default="default", help="workload preset"
    )
    p_prof.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the attribution document as JSON to PATH",
    )
    p_prof.add_argument(
        "--flame",
        default=None,
        metavar="PATH",
        help="also write a Perfetto flame view of the attribution to PATH",
    )
    p_prof.set_defaults(func=cmd_profile)

    p_attr = sub.add_parser(
        "attribute",
        help="exact overhead attribution: stall cycles by shared region, "
        "sync object, phase and home node",
    )
    p_attr.add_argument("app", help="application name or alias (e.g. intsort, maxflow)")
    p_attr.add_argument("system", help="memory system (e.g. RCinv, z-mc)")
    p_attr.add_argument(
        "--scale", choices=SCALES, default="default", help="workload preset"
    )
    p_attr.add_argument(
        "--by",
        choices=("block", "sync", "phase", "home", "all"),
        default="all",
        help="dimension(s) to print (default all four)",
    )
    p_attr.add_argument(
        "--top", type=int, default=10, help="rows per dimension table (default 10)"
    )
    p_attr.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the full attribution report as JSON to PATH "
        "(the input format of 'repro diff')",
    )
    p_attr.add_argument(
        "--perfetto",
        default=None,
        metavar="PATH",
        help="write a Perfetto counter-heatmap (per-region stall per phase) to PATH",
    )
    p_attr.add_argument(
        "--vs",
        default=None,
        metavar="SYSTEM|SCENARIO",
        help="also run the same app on another memory system (or this system "
        "under a degradation scenario) and print the overhead-delta diff",
    )
    p_attr.set_defaults(func=cmd_attribute)

    p_diff = sub.add_parser(
        "diff", help="decompose the overhead delta between two attribution reports"
    )
    p_diff.add_argument("report_a", help="baseline attribution report (JSON, from --out)")
    p_diff.add_argument("report_b", help="comparison attribution report (JSON)")
    p_diff.add_argument(
        "--by",
        choices=("block", "sync", "phase", "home", "all"),
        default="all",
        help="dimension(s) to print (default all four)",
    )
    p_diff.add_argument(
        "--top", type=int, default=10, help="rows per dimension table (default 10)"
    )
    p_diff.add_argument(
        "--out", default=None, metavar="PATH", help="write the diff document as JSON"
    )
    p_diff.set_defaults(func=cmd_diff)

    p_check = sub.add_parser(
        "check",
        help="happens-before race detection + protocol invariant checking",
    )
    p_check.add_argument("--app", default="all", help="application name, 'RacyDemo' or 'all'")
    p_check.add_argument("--systems", nargs="*", help="memory systems (default: all six)")
    p_check.add_argument("--scale", choices=SCALES, default="smoke")
    _add_parallel_flags(p_check)
    p_check.set_defaults(func=cmd_check)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing with auto-minimised repros: random "
        "draws cross-checked by each oracle family, resumable corpus ledger",
    )
    p_fuzz.add_argument(
        "--budget",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="wall-clock budget; no new batch starts after it is spent "
        "(default 60)",
    )
    p_fuzz.add_argument(
        "--seed", type=int, default=0, help="draw-stream seed (default 0)"
    )
    p_fuzz.add_argument(
        "--max-draws",
        type=int,
        default=None,
        metavar="N",
        help="stop after evaluating N fresh draws (default: budget-bound)",
    )
    p_fuzz.add_argument(
        "--oracle",
        action="append",
        choices=fuzz.ORACLES,
        metavar="NAME",
        help=f"oracle family to run: {', '.join(fuzz.ORACLES)} (repeatable; "
        "default all)",
    )
    p_fuzz.add_argument(
        "--ledger",
        default=str(fuzz.DEFAULT_LEDGER),
        metavar="PATH",
        help="corpus ledger recording every evaluated draw (default %(default)s)",
    )
    p_fuzz.add_argument(
        "--repro-dir",
        default=str(fuzz.DEFAULT_REPRO_DIR),
        metavar="DIR",
        help="where shrunk repro files are written (default %(default)s)",
    )
    p_fuzz.add_argument(
        "--no-resume",
        action="store_true",
        help="evaluate draws even when their key is already in the ledger",
    )
    p_fuzz.add_argument(
        "--replay",
        default=None,
        metavar="PATH",
        help="re-evaluate one repro file; exits 1 while the mismatch "
        "still reproduces",
    )
    p_fuzz.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the session report as JSON to PATH",
    )
    _add_parallel_flags(p_fuzz)
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_scn = sub.add_parser(
        "scenario",
        help="named degradation scenarios: fault injection over apps x systems",
    )
    scn_sub = p_scn.add_subparsers(dest="scenario_command", required=True)

    p_scn_list = scn_sub.add_parser("list", help="list the registered scenarios")
    p_scn_list.set_defaults(func=cmd_scenario_list)

    p_scn_desc = scn_sub.add_parser(
        "describe", help="show one scenario's model, knobs and realised injection"
    )
    p_scn_desc.add_argument("name", help="scenario name (see 'scenario list')")
    p_scn_desc.set_defaults(func=cmd_scenario_describe)

    p_scn_run = scn_sub.add_parser(
        "run", help="run the scenario matrix and print the degradation report"
    )
    p_scn_run.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="scenario to run (repeatable; default every registered scenario; "
        "baseline is always included)",
    )
    p_scn_run.add_argument("--app", default="all", help="application name or 'all'")
    p_scn_run.add_argument(
        "--scale",
        choices=SCALES,
        default="small",
        help="workload preset (default small: the committed baseline's scale)",
    )
    p_scn_run.add_argument(
        "--systems", nargs="*", help="memory systems (default: paper's five)"
    )
    p_scn_run.add_argument(
        "--set",
        action="append",
        metavar="KNOB=VALUE",
        help="override a scenario knob (repeatable; see 'scenario describe')",
    )
    p_scn_run.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help=f"also write the report as JSON (e.g. {SCENARIO_BENCH_FILE})",
    )
    p_scn_run.add_argument("--format", choices=("text", "json"), default="text")
    _add_parallel_flags(p_scn_run)
    _add_manifest_flag(p_scn_run)
    p_scn_run.set_defaults(func=cmd_scenario_run)

    p_lint = sub.add_parser(
        "lint",
        help="static sync/lockset analysis of apps + determinism lint of the core",
    )
    p_lint.add_argument(
        "--apps", action="store_true", help="run only the app sync/lockset pass"
    )
    p_lint.add_argument(
        "--core", action="store_true", help="run only the core determinism pass"
    )
    p_lint.add_argument(
        "--baseline",
        default="lint_baseline.json",
        metavar="PATH",
        help="accepted-findings baseline (relative paths resolve against the repo root)",
    )
    p_lint.add_argument(
        "--no-baseline", action="store_true", help="ignore the baseline: report everything"
    )
    p_lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept all current findings into the baseline and exit 0",
    )
    p_lint.add_argument(
        "--report", metavar="PATH", help="also write the full findings report as JSON"
    )
    p_lint.add_argument("--format", choices=("text", "json"), default="text")
    p_lint.add_argument(
        "--strict",
        action="store_true",
        help="unused suppressions and stale baseline entries also fail",
    )
    p_lint.add_argument(
        "--root", metavar="DIR", help="lint a different source tree (testing)"
    )
    p_lint.set_defaults(func=cmd_lint)

    p_perf = sub.add_parser(
        "perf",
        help="perfbench ledger (record/report) and the interleaved A/B speed gate (compare)",
    )
    perf_sub = p_perf.add_subparsers(dest="perf_command", required=True)

    p_perf_rec = perf_sub.add_parser(
        "record", help=f"append saved perfbench/run.py output to the ledger ({perf.HISTORY_FILE})"
    )
    p_perf_rec.add_argument("logs", nargs="+", metavar="LOG", help="saved perfbench stdout")
    p_perf_rec.add_argument(
        "--history",
        default=perf.HISTORY_FILE,
        metavar="PATH",
        help=f"ledger file (default {perf.HISTORY_FILE})",
    )
    p_perf_rec.set_defaults(func=cmd_perf_record)

    p_perf_rep = perf_sub.add_parser(
        "report", help="print each ledger series' trend and latest delta"
    )
    p_perf_rep.add_argument(
        "--history",
        default=perf.HISTORY_FILE,
        metavar="PATH",
        help=f"ledger file (default {perf.HISTORY_FILE})",
    )
    p_perf_rep.add_argument("--format", choices=("text", "json"), default="text")
    p_perf_rep.set_defaults(func=cmd_perf_report)

    p_perf_cmp = perf_sub.add_parser(
        "compare",
        help="interleaved perfbench pairs of BASE_DIR and this tree; "
        "exit 1 when a metric is worse than its bound in every pair",
    )
    p_perf_cmp.add_argument("base_dir", metavar="BASE_DIR", help="checkout of the base commit")
    p_perf_cmp.set_defaults(func=cmd_perf_compare)

    p_sys = sub.add_parser("systems", help="list systems and applications")
    p_sys.set_defaults(func=cmd_systems)

    p_cache = sub.add_parser("cache", help="show or clear the on-disk result cache")
    p_cache.add_argument("--clear", action="store_true", help="delete every cached result")
    p_cache.set_defaults(func=cmd_cache)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure(verbose=args.verbose, quiet=args.quiet, json_mode=args.json)
    # Commands with parallel flags stream per-job heartbeats through a
    # process-wide telemetry session: live progress lines on the
    # diagnostic channel plus the optional --telemetry-out JSONL sink.
    if hasattr(args, "telemetry_out"):
        with telemetry.session(out=args.telemetry_out, render=not args.quiet):
            return args.func(args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
