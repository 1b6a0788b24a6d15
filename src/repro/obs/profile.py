"""Self-profiler: host wall-time attribution by statistical stack sampling.

The paper decomposes *simulated* cycles into overhead categories
relative to the zero-overhead z-machine.  This module gives the host
simulator the same story about itself: where do *wall-clock*
nanoseconds go?  Components:

``setup``
    Everything outside :meth:`repro.sim.engine.Engine.run`: building
    the application's inputs, constructing the machine, ``setup()``.
``wheel``
    Event-wheel scheduling: :mod:`repro.sim.wheel` plus the lines of
    ``Engine.run`` that pop, peek and re-insert ready-queue entries
    inline.
``app``
    Application Python execution (:mod:`repro.apps`): the generator
    code that runs between two yielded ops.
``mem``
    Memory-system transaction handling (:mod:`repro.mem`), excluding
    time spent inside the network.
``network``
    Network routing/transfer (:mod:`repro.network`).
``sync``
    The synchronisation manager (:mod:`repro.runtime.sync`), including
    the wakes it triggers.
``observer``
    The observer modules: the fan-out of :mod:`repro.sim.observer`, the
    event log and tracer (:mod:`repro.sim.trace`), :mod:`repro.obs` and
    the correctness checkers (:mod:`repro.analysis.checkers`),
    callbacks, folds and reporting alike.  Zero when nothing is
    attached.
``dispatch``
    Everything else inside ``Engine.run``: op-class dispatch,
    stall-decomposition accounting, run-ahead checks.

While a :class:`HostProfiler` is armed (``with HostProfiler() as
prof:``) an interval timer interrupts the process every
:data:`SAMPLE_INTERVAL_S` seconds of wall time.  The handler walks the
interrupted frame's ``f_back`` chain and charges the sample to the
innermost frame whose module maps to a component; frames of unmapped
modules (``sim/stats``, ``runtime/sharedmem``, other ``Engine``
methods such as ``wake``) pass the sample on to their caller.  The
per-code-object verdict is cached, so a sample costs a short walk of
dict lookups.  Component times are sample fractions scaled to the
measured wall time of the armed block.

Sampling only reads frames, so the engine, the memory system and the
results are exactly those of an unprofiled run; the engine has no
profiler hook at all.

Typical use::

    with HostProfiler() as prof:
        machine, result = run_machine(factory(), "RCinv", cfg)
    print(prof.table())
    write_trace("flame.json", prof.to_perfetto())
"""

from __future__ import annotations

import ast
import inspect
import os
import signal
import textwrap
from time import perf_counter_ns
from types import CodeType, FrameType
from typing import Any

from ..sim.engine import Engine

#: Host-time components, in display order.
COMPONENTS = (
    "setup", "wheel", "app", "mem", "network", "sync", "observer", "dispatch",
)

#: One-line description per component (for tables and docs).
COMPONENT_HELP = {
    "setup": "outside Engine.run: inputs, machine build, setup",
    "wheel": "event-wheel pop/push scheduling",
    "app": "application generator execution",
    "mem": "memory-system transaction handling",
    "network": "network routing/transfer",
    "sync": "sync manager (locks/barriers/flags)",
    "observer": "engine observers (tracer, metrics, attribution, checkers)",
    "dispatch": "engine dispatch + cycle accounting",
}

#: Seconds of wall time between two samples.
SAMPLE_INTERVAL_S = 0.001

#: The timer behind the sampler and the signal it raises.  The
#: real-time timer fires at the requested rate; the CPU-time timers
#: (``ITIMER_PROF``/``ITIMER_VIRTUAL``) tick at the kernel's HZ, only
#: 250 Hz on common kernel builds, which leaves a default-scale run of
#: ~0.1 s with a couple of dozen samples.
_TIMER = signal.ITIMER_REAL
_SIGNAL = signal.SIGALRM

#: Verdicts for code objects that are not a component of their own.
_PASS = "pass"  # attribute to the caller
_RUN = "run"  # the engine's run loop: wheel or dispatch by line

#: Module path (relative to the ``repro`` package) -> component.  The
#: first matching prefix wins; unmatched modules pass samples through,
#: and so does this module (a sample taken inside the handler).
_MODULE_COMPONENTS = (
    ("obs/profile.py", _PASS),
    ("sim/wheel.py", "wheel"),
    ("apps/", "app"),
    ("mem/", "mem"),
    ("network/", "network"),
    ("runtime/sync.py", "sync"),
    ("sim/observer.py", "observer"),
    ("sim/trace.py", "observer"),
    ("obs/", "observer"),
    ("analysis/checkers/", "observer"),
)

_PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + os.sep


def _code_kind(code: CodeType) -> str:
    """Component (or :data:`_PASS` / :data:`_RUN`) of one code object."""
    if code is Engine.run.__code__:
        return _RUN
    filename = code.co_filename
    if not filename.startswith(_PKG_ROOT):
        return _PASS
    rel = filename[len(_PKG_ROOT):].replace(os.sep, "/")
    for prefix, component in _MODULE_COMPONENTS:
        if rel.startswith(prefix):
            return component
    return _PASS


#: Names whose every use in ``Engine.run`` is ready-queue work.
_WHEEL_NAMES = frozenset({"queue", "times", "tids", "bisect_right"})


def inlined_wheel_lines() -> frozenset[int]:
    """Line numbers of ``Engine.run`` that inline the event wheel.

    These are the lines that name the ready queue or its lists
    (``queue``, ``times``, ``tids``) or the ``bisect_right`` of a
    switch: the loop-head pop, the horizon reads and the re-insert.
    Read from the source once per profiler; without the source (a
    bytecode-only install) they count as dispatch.
    """
    try:
        lines, first = inspect.getsourcelines(Engine.run)
    except (OSError, TypeError):
        return frozenset()
    tree = ast.parse(textwrap.dedent("".join(lines)))
    return frozenset(
        node.lineno + first - 1
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in _WHEEL_NAMES
    )


class HostProfiler:
    """Samples the interpreter stack while armed; reports host time per component.

    Use as a context manager; the same profiler may be armed several
    times and accumulates across blocks.  Only one profiler may be
    armed at a time (the timer is process-wide), and only from the main
    thread (where Python runs signal handlers).
    """

    def __init__(self) -> None:
        #: Samples per component.
        self.counts: dict[str, int] = dict.fromkeys(COMPONENTS, 0)
        #: Total armed wall time (ns).
        self.wall_ns = 0
        self._kinds: dict[CodeType, str] = {}
        self._wheel_lines = inlined_wheel_lines()
        self._t0 = 0
        self._prev_handler: Any = None

    # -- arming ----------------------------------------------------------
    def __enter__(self) -> HostProfiler:
        prev = signal.signal(_SIGNAL, self._on_sample)
        self._prev_handler = signal.SIG_DFL if prev is None else prev
        self._t0 = perf_counter_ns()
        signal.setitimer(_TIMER, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(_TIMER, 0.0, 0.0)
        self.wall_ns += perf_counter_ns() - self._t0
        signal.signal(_SIGNAL, self._prev_handler)

    def _on_sample(self, signum: int, frame: FrameType | None) -> None:
        self.counts[self.classify(frame)] += 1

    # -- classification --------------------------------------------------
    def classify(self, frame: Any) -> str:
        """Component of a stack whose innermost frame is ``frame``.

        Accepts anything with ``f_code``/``f_lineno``/``f_back``, so the
        mapping can be checked on synthetic chains.
        """
        kinds = self._kinds
        component = None
        while frame is not None:
            code = frame.f_code
            kind = kinds.get(code)
            if kind is None:
                kind = kinds[code] = _code_kind(code)
            if kind is _RUN:
                if component is not None:
                    return component
                return "wheel" if frame.f_lineno in self._wheel_lines else "dispatch"
            if component is None and kind is not _PASS:
                component = kind
            frame = frame.f_back
        return "setup"

    # -- reporting -------------------------------------------------------
    @property
    def samples(self) -> int:
        return sum(self.counts.values())

    @property
    def ns(self) -> dict[str, int]:
        """Estimated nanoseconds per component: sample share x wall time."""
        n = self.samples
        wall = self.wall_ns
        return {
            name: wall * count // n if n else 0 for name, count in self.counts.items()
        }

    def to_dict(self) -> dict:
        """JSON-ready attribution document."""
        n = self.samples
        ns = self.ns
        return {
            "schema": 2,
            "profile": "host-component-attribution",
            "sampled": True,
            "samples": n,
            "interval_s": SAMPLE_INTERVAL_S,
            "wall_ns": self.wall_ns,
            "components": {
                name: {
                    "ns": ns[name],
                    "samples": self.counts[name],
                    "pct": round(100.0 * self.counts[name] / n, 2) if n else 0.0,
                    "help": COMPONENT_HELP[name],
                }
                for name in COMPONENTS
            },
        }

    def table(self) -> str:
        """Human-readable per-component attribution table."""
        n = self.samples
        ns = self.ns
        lines = [
            f"host profile (sampled): {n:,} samples at "
            f"{SAMPLE_INTERVAL_S * 1e3:g} ms over {self.wall_ns / 1e9:.3f}s wall",
            f"{'component':>10s} {'time (ms)':>10s} {'share':>7s}  what",
        ]
        for name in COMPONENTS:
            pct = 100.0 * self.counts[name] / n if n else 0.0
            lines.append(
                f"{name:>10s} {ns[name] / 1e6:>10.2f} {pct:>6.1f}%  {COMPONENT_HELP[name]}"
            )
        return "\n".join(lines)

    def to_perfetto(self) -> dict:
        """Perfetto-compatible flame view of the attribution.

        Aggregate flame: one host lane with a root ``profile`` slice
        spanning the armed wall time, whose children are the components
        laid side by side, each sized by its estimated time (1 us of
        trace time per 1 us of host time).  Loadable in
        https://ui.perfetto.dev like any timeline.
        """
        ns = self.ns
        events: list[dict] = [
            {"ph": "M", "pid": 0, "tid": 0, "ts": 0, "name": "process_name",
             "args": {"name": "repro self-profile"}},
            {"ph": "M", "pid": 0, "tid": 0, "ts": 0, "name": "thread_name",
             "args": {"name": "host"}},
            {"ph": "X", "pid": 0, "tid": 0, "cat": "profile", "name": "profile",
             "ts": 0, "dur": self.wall_ns / 1e3,
             "args": {"samples": self.samples, "interval_s": SAMPLE_INTERVAL_S}},
        ]
        cursor = 0.0
        for name in COMPONENTS:
            dur = ns[name] / 1e3
            if dur <= 0.0:
                continue
            events.append(
                {"ph": "X", "pid": 0, "tid": 0, "cat": "profile", "name": name,
                 "ts": cursor, "dur": dur,
                 "args": {"samples": self.counts[name], "help": COMPONENT_HELP[name]}}
            )
            cursor += dur
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"profile": "host-component-attribution", "wall_ns": self.wall_ns},
        }


__all__ = [
    "COMPONENTS", "COMPONENT_HELP", "SAMPLE_INTERVAL_S", "HostProfiler",
    "inlined_wheel_lines",
]
