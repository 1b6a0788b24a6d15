"""Every metric the benchmark prints, with its unit and what it is for.

``BENCHMARK.json`` lists the same names, units and directions (a test
keeps the two in step).  This table also records, for each per-layer
metric, the layer it measures and which end-to-end metric it should
move on which workload; "exact" marks simulated counts, which a
speed-only change must leave unchanged.
"""

from __future__ import annotations

from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str
    note: str


END_TO_END = (
    Metric("ev_per_s", "1/s", "higher", "all",
           "simulated engine events (SimResult.ops) of the plain runs per normalised second"),
    Metric("setup_s", "s", "lower", "workloads+runtime",
           "normalised seconds for inputs, Machine(...) and app.setup, summed over executions"),
    Metric("peak_rss_mb", "MB", "lower", "all",
           "peak RSS of the workload's own interpreter"),
    Metric("obs_ratio", "x", "lower", "obs",
           "observed run (attach, run, report) over plain run time, paired per cell"),
)

PER_LAYER = (
    Metric("sim.engine.self_s", "s", "lower", "sim.engine",
           "ev_per_s on ideal first, then on protocol"),
    Metric("sim.wheel.calls", "count", "lower", "sim.wheel", "ev_per_s on ideal"),
    Metric("sim.wheel.self_s", "s", "lower", "sim.wheel", "ev_per_s on ideal"),
    Metric("apps.resumes", "count", "lower", "apps", "ev_per_s on ideal (Nbody)"),
    Metric("apps.self_s", "s", "lower", "apps", "ev_per_s on ideal (Nbody)"),
    Metric("mem.calls", "count", "lower", "mem", "ev_per_s on protocol; flat on ideal"),
    Metric("mem.self_s", "s", "lower", "mem", "ev_per_s on protocol; flat on ideal"),
    Metric("mem.ns_per_call", "ns", "lower", "mem", "ev_per_s on protocol; flat on ideal"),
    Metric("mem.fast_frac", "ratio", "higher", "mem", "ev_per_s on protocol"),
    Metric("network.calls", "count", "lower", "network", "ev_per_s on protocol"),
    Metric("network.self_s", "s", "lower", "network", "ev_per_s on protocol"),
    Metric("runtime.sync.calls", "count", "lower", "runtime.sync",
           "ev_per_s on protocol (mainly Maxflow)"),
    Metric("runtime.sync.self_s", "s", "lower", "runtime.sync",
           "ev_per_s on protocol (mainly Maxflow)"),
    Metric("obs.calls", "count", "lower", "obs",
           "ev_per_s and obs_ratio on observed; zero elsewhere"),
    Metric("obs.self_s", "s", "lower", "obs",
           "ev_per_s and obs_ratio on observed; zero elsewhere"),
    Metric("workloads.self_s", "s", "lower", "workloads", "setup_s on every workload"),
    Metric("runtime.machine_s", "s", "lower", "runtime.machine", "setup_s on every workload"),
    Metric("trace.overhead", "x", "lower", "trace",
           "traced over untraced run time of the same cells; moves nothing"),
    Metric("sim.events", "count", "lower", "sim.engine", "exact"),
    Metric("sim.cycles", "cycles", "lower", "sim.engine", "exact"),
    Metric("mem.read_misses", "count", "lower", "mem", "exact"),
    Metric("mem.read_miss_ratio", "ratio", "lower", "mem", "exact"),
    Metric("network.messages", "count", "lower", "network", "exact"),
    Metric("network.bytes", "B", "lower", "network", "exact"),
    Metric("stall.read_cyc", "cycles", "lower", "mem", "exact"),
    Metric("stall.write_cyc", "cycles", "lower", "mem", "exact"),
    Metric("stall.flush_cyc", "cycles", "lower", "mem", "exact"),
    Metric("sync.wait_cyc", "cycles", "lower", "runtime.sync", "exact"),
)
