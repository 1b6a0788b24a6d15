#!/usr/bin/env python3
"""Regenerate every figure and table of the paper in one run.

Runs all four applications on all five memory systems (Figures 2-5),
evaluates the paper's qualitative claims, and prints Table 1 from each
study's z-machine run (the z-mc bar of its figure; no second run).  Scaled-down inputs by default; pass ``--paper``
for paper-scale inputs (much slower: execution-driven simulation in
Python).

Independent runs go through the parallel/caching layer
(docs/performance.md): ``--jobs N`` fans each study out over N worker
processes (0 = one per CPU) and repeated invocations reuse the on-disk
result cache unless ``--no-cache`` is given.

Output goes through the structured logger (docs/observability.md):
``--json`` emits machine-readable records, ``--quiet`` drops the
per-study diagnostics.  A run manifest describing every study (config,
host, code fingerprint, events/sec, cache hits) is written next to the
output as a sidecar (default ``full_paper_run_manifest.json``,
``--manifest PATH`` to move it) — this is the provenance record for
committed artifacts such as ``benchmarks/paper_scale_output.txt``.

Usage:  python examples/full_paper_run.py [--paper] [--jobs N]
        [--no-cache] [--json] [--quiet] [--manifest PATH]
"""

import sys
import time

from repro import MachineConfig, ResultCache, run_study, table1_rows
from repro.analysis import format_claims, format_figure, format_table1, standard_claims
from repro.apps import default_scale, paper_scale
from repro.obs import build_manifest, configure, write_manifest


def factories(paper: bool):
    return paper_scale() if paper else default_scale()


def main() -> None:
    paper = "--paper" in sys.argv
    jobs = int(sys.argv[sys.argv.index("--jobs") + 1]) if "--jobs" in sys.argv else 1
    cache = None if "--no-cache" in sys.argv else ResultCache.default()
    manifest_path = (
        sys.argv[sys.argv.index("--manifest") + 1]
        if "--manifest" in sys.argv
        else "full_paper_run_manifest.json"
    )
    log = configure(
        verbose="--verbose" in sys.argv,
        quiet="--quiet" in sys.argv,
        json_mode="--json" in sys.argv,
    )
    cfg = MachineConfig(nprocs=16)
    figure_no = {"Cholesky": 2, "IS": 3, "Maxflow": 4, "Nbody": 5}
    studies = []
    wall_start = time.time()
    for name, (factory, reuse) in factories(paper).items():
        t0 = time.time()
        study = run_study(factory, cfg, jobs=jobs, cache=cache)
        studies.append(study)
        log.out(format_figure(study, f"{name} — cf. paper Figure {figure_no[name]}"))
        log.out()
        log.out(format_claims(standard_claims(study, expect_reuse=reuse)))
        log.info(f"{name} simulated in {time.time() - t0:.1f}s wall time")
        log.out()
    log.out(format_table1(table1_rows(studies)))
    manifest = build_manifest(
        "paper-run",
        config=cfg,
        app=",".join(figure_no),
        wall_seconds=time.time() - wall_start,
        extra={
            "scale": "paper" if paper else "default",
            "jobs": jobs,
            "cached": cache is not None,
            "studies": [study.manifest for study in studies],
        },
    )
    write_manifest(manifest_path, manifest)
    log.info(f"run manifest written to {manifest_path}")


if __name__ == "__main__":
    main()
