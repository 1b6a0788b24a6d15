"""One benchmark run of one workload, in its own interpreter.

Started by ``run.py``, which sets single-threaded BLAS and the import
path.  The run makes one untimed warm pass, then repeats timed passes
over the workload's cells until ``--seconds`` have passed, checking
every cell it executes.  Each metric is built from per-cell medians across passes of
host-normalised times (see ``normalise.py``).  With ``--trace 1`` it
alternates untraced and traced passes and reports per-layer metrics;
the spans go to ``out/`` beside this file.  Human-readable lines come
first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
from pathlib import Path
from statistics import median
from time import perf_counter

import catalog
from cells import WORKLOADS, Cell, Sample, build_cells, execute, expected_digests
from normalise import Normaliser
from spans import LAYERS, SpanRecorder

#: Layers timed during setup, scaled by the setup marks' factor.
SETUP_LAYERS = ("workloads", "runtime.machine")

Pass = dict[str, Sample]


class Tally:
    """Cell executions attempted and failed; a failure never stops the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def run(self, label: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # counted and reported; the other cells go on
            self.failed += 1
            print(f"FAILED {label}: {exc!r}")
            return None


def run_pass(cells: list[Cell], norm: Normaliser, expected: dict, tally: Tally,
             probe=None, twins: bool = True) -> Pass:
    """Execute every cell once (and its observed twin); key ``name[+obs]``."""
    samples: Pass = {}
    for cell in cells:
        want = expected[cell.ident]
        plain = tally.run(cell.name, execute, cell, norm, want, probe=probe)
        if plain is not None:
            samples[cell.name] = plain
        if cell.observe and twins:
            obs = tally.run(cell.name + "+obs", execute, cell, norm, want,
                            observe=True, probe=probe)
            if obs is not None:
                samples[cell.name + "+obs"] = obs
    return samples


def cell_medians(passes: list[Pass], attr: str) -> dict[str, float]:
    keys = {k for p in passes for k in p}
    return {k: median(getattr(p[k], attr) for p in passes if k in p) for k in keys}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(cells: list[Cell], passes: list[Pass]) -> dict[str, float]:
    run = cell_medians(passes, "run_s")
    setup = cell_medians(passes, "setup_s")
    ops = {k: s.result.ops for p in passes for k, s in p.items()}
    plain = [c.name for c in cells if c.name in run]
    # obs_ratio pairs each observed run with its plain twin of the same
    # pass (run back to back), then takes the median over passes.
    ratios = []
    for p in passes:
        twins = [c.name for c in cells if c.name in p and c.name + "+obs" in p]
        if twins:
            ratios.append(sum(p[k + "+obs"].run_s for k in twins) / sum(p[k].run_s for k in twins))
    return {
        "ev_per_s": _ratio(sum(ops[k] for k in plain), sum(run[k] for k in plain)),
        "setup_s": sum(setup.values()),
        "peak_rss_mb": peak_rss_mb(),
        "obs_ratio": median(ratios) if ratios else 0.0,
    }


def _layer_seconds(p: Pass) -> dict[str, float]:
    out = dict.fromkeys(LAYERS, 0.0)
    for s in p.values():
        for layer, ns in s.trace.self_ns.items():
            out[layer] += ns * 1e-9 * (s.setup_f if layer in SETUP_LAYERS else s.run_f)
    return out


def per_layer(cells: list[Cell], untraced: list[Pass], traced: list[Pass]) -> dict[str, float]:
    secs = [_layer_seconds(p) for p in traced]
    self_s = {layer: median(x[layer] for x in secs) for layer in LAYERS} if secs else \
        dict.fromkeys(LAYERS, 0.0)
    last = traced[-1] if traced else {}
    calls = {layer: sum(s.trace.calls[layer] for s in last.values()) for layer in LAYERS}
    fast = sum(s.trace.fast for s in last.values())
    accesses = sum(s.trace.accesses for s in last.values())
    plain_run = cell_medians(untraced, "run_s")
    traced_run = cell_medians(traced, "run_s")
    both = [k for k in traced_run if k in plain_run]

    results = [untraced[-1][c.name].result for c in cells if c.name in untraced[-1]]
    procs = [pr for r in results for pr in r.procs]
    reads = sum(pr.reads for pr in procs)
    misses = sum(pr.read_misses for pr in procs)
    return {
        "sim.engine.self_s": self_s["sim.engine"],
        "sim.wheel.calls": calls["sim.wheel"],
        "sim.wheel.self_s": self_s["sim.wheel"],
        "apps.resumes": calls["apps"],
        "apps.self_s": self_s["apps"],
        "mem.calls": calls["mem"],
        "mem.self_s": self_s["mem"],
        "mem.ns_per_call": _ratio(self_s["mem"] * 1e9, calls["mem"]),
        "mem.fast_frac": _ratio(fast, accesses),
        "network.calls": calls["network"],
        "network.self_s": self_s["network"],
        "runtime.sync.calls": calls["runtime.sync"],
        "runtime.sync.self_s": self_s["runtime.sync"],
        "obs.calls": calls["obs"],
        "obs.self_s": self_s["obs"],
        "workloads.self_s": self_s["workloads"],
        "runtime.machine_s": self_s["runtime.machine"],
        "trace.overhead": _ratio(sum(traced_run[k] for k in both),
                                 sum(plain_run[k] for k in both)),
        "sim.events": sum(r.ops for r in results),
        "sim.cycles": sum(r.total_time for r in results),
        "mem.read_misses": misses,
        "mem.read_miss_ratio": _ratio(misses, reads),
        "network.messages": sum(r.network_messages for r in results),
        "network.bytes": sum(r.network_bytes for r in results),
        "stall.read_cyc": sum(pr.read_stall for pr in procs),
        "stall.write_cyc": sum(pr.write_stall for pr in procs),
        "stall.flush_cyc": sum(pr.buffer_flush for pr in procs),
        "sync.wait_cyc": sum(pr.sync_wait for pr in procs),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", default="large")
    args = ap.parse_args(argv)

    t_start = perf_counter()
    cells = build_cells(args.workload, args.seed, args.scale)
    expected = expected_digests(cells, args.scale)
    norm = Normaliser()
    tally = Tally()
    # Untimed warm pass over the same cells on the smoke inputs: it runs
    # every code path the timed passes run, at a fraction of their cost,
    # and is gated like any other pass.
    warm = build_cells(args.workload, args.seed, "smoke")
    run_pass(warm, norm, expected_digests(warm, "smoke"), tally)
    prep_s = perf_counter() - t_start

    recorder = SpanRecorder() if args.trace else None
    # Where only a probe cell runs observed, the traced run leaves the
    # twin out, so the layer split describes the plain workload.
    trace_twins = all(c.observe for c in cells)
    untraced: list[Pass] = []
    traced: list[Pass] = []
    t0 = perf_counter()
    while True:
        untraced.append(run_pass(cells, norm, expected, tally))
        if recorder is not None:
            traced.append(run_pass(cells, norm, expected, tally, recorder, trace_twins))
        if perf_counter() - t0 >= args.seconds:
            break
    timed_s = perf_counter() - t0

    kmin, kmed, kmax = norm.summary()
    print(f"perfbench {args.workload} seed={args.seed} scale={args.scale}: {len(cells)} cells, "
          f"{len(untraced)} untraced + {len(traced)} traced passes in {timed_s:.1f} s "
          f"(checks and warm pass {prep_s:.1f} s)")
    print(f"kernel ms over {len(norm.samples)} marks: min {kmin:.4f} median {kmed:.4f} "
          f"max {kmax:.4f}")
    print("raw run wall s per untraced pass (not gated): " + ", ".join(
        f"{sum(s.run_host_s for s in p.values()):.3f}" for p in untraced))
    run_med = cell_medians(untraced, "run_s")
    setup_med = cell_medians(untraced, "setup_s")
    for key in sorted(run_med):
        print(f"  {key:22s} run {run_med[key]:.4f} s  setup {setup_med[key]:.5f} s (normalised)")

    if recorder is None:
        metrics, table = end_to_end(cells, untraced), catalog.END_TO_END
    else:
        metrics, table = per_layer(cells, untraced, traced), catalog.PER_LAYER
        out = Path(__file__).resolve().parent / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        recorder.write(out)
        print(f"{len(recorder.spans)} spans written to {out}")
    for m in table:
        print(f"{m.name} = {metrics[m.name]} {m.unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit} for m in table},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
