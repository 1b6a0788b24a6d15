"""Differential fuzzing harness with auto-minimised repros (``repro fuzz``).

The reproduction's claims rest on every engine variant computing the
*same* simulated machine: the wheel engine must match the plain-heapq
reference loop bit-for-bit, observability attachments must not perturb
simulated results, and the dynamic correctness checkers must agree with
the static analyzer.  This module is the standing stress harness for
those contracts: it draws seeded random configurations (application x
memory system x nprocs x scale knobs x scenario/degradation spec x
observer stack) and cross-checks each draw with two oracle families:

``reference``
    one bare wheel-engine run is the point of comparison.  It must be
    bit-identical (:class:`SimResult`, traffic, network counters, final
    shared-memory image) to the :class:`repro.sim.reference.ReferenceEngine`
    run and, when the draw names observers, to the wheel run with them
    attached in the drawn order (tracer / metrics / attribution /
    checked invariants, plus the stack sampler armed around the run).
``checkers``
    race detector + invariant auditor + static analyzer agreement —
    dynamic race labels must be a subset of the static report's,
    statically clean apps must stay dynamically clean, and the protocol
    invariant auditor must hold for every app.

On a mismatch a greedy delta-debugging shrinker minimises the failing
draw (fewer processors, then smaller app input, then simpler
degradation, then fewer observers) and writes a commit-ready repro
file under ``tests/fixtures/fuzz_repros/`` together with the one-line
command that replays it.  A corpus ledger (JSONL, one record per
evaluated draw keyed by a stable hash of the configuration) records
draw-space coverage, so successive runs — locally or in CI — resume
where the last one stopped instead of re-evaluating known-good draws.

Draw evaluation fans out through the existing pool/cache machinery
(:func:`repro.core.parallel.run_jobs`), so ``--jobs N`` parallelises and
an optional :class:`~repro.core.parallel.ResultCache` makes repeated
sweeps near-free.

See docs/correctness.md ("Fuzzing") for the handbook.
"""
# Wall-clock below times the *host* budget only; simulated timing comes
# from cycle counts, and draws come from seeded generators.

from __future__ import annotations

import hashlib
import inspect
import json
import time
from collections.abc import Callable, Iterator, Mapping
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from random import Random

from ..apps.base import run_machine
from ..apps.factory import APP_REGISTRY, AppFactory
from ..config import MachineConfig
from ..core.parallel import JobSpec, ResultCache, resolve_jobs, run_jobs
from ..mem.systems import SYSTEM_REGISTRY
from ..obs.attrib import AttributionCollector
from ..obs.log import get_logger
from ..obs.metrics import MetricsCollector
from ..obs.profile import HostProfiler
from ..scenarios import SCENARIO_NAMES, apply_scenario, get_scenario
from ..sim.reference import capture_outcome, use_reference_engine
from ..sim.trace import TracingMemory
from .checkers.invariants import InvariantChecker

#: Oracle families, in evaluation order.
ORACLES = ("reference", "checkers")

#: Observers a draw may stack (attach order = draw order): the
#: engine-observer subscribers (``"checked"`` is the invariant checker)
#: and the sampler.  The corpus and the committed repros store these
#: names, so they must not change.
OBSERVERS = ("checked", "tracer", "metrics", "attrib", "profiler")

#: Memory systems in the draw space, in registry order (``make_draw``
#: picks by index, so the order is part of the corpus key space).
SYSTEMS = tuple(SYSTEM_REGISTRY)

#: Processor counts in the draw space.
NPROC_CHOICES = (1, 2, 3, 4, 6, 8, 16)

#: app name -> module file for the static-analysis oracle.
APP_MODULES = {
    name: f"{cls.__module__.rpartition('.')[2]}.py" for name, cls in APP_REGISTRY.items()
}

#: Default corpus ledger and repro directory (repo-relative).
DEFAULT_LEDGER = Path("benchmarks") / "fuzz_corpus.jsonl"
DEFAULT_REPRO_DIR = Path("tests") / "fixtures" / "fuzz_repros"

#: The smoke-scale ceiling of the scale-bearing app kwargs, which the
#: shrinker aims for.  ``grid`` is tracked by its side length.
_SMOKE_CEILING = {
    "Cholesky": {"grid": 4},
    "IS": {"n_keys": 128, "nbuckets": 16},
    "Maxflow": {"n": 12, "extra_edges": 24},
    "Nbody": {"n_bodies": 12, "steps": 2},
    "RacyDemo": {"rounds": 4},
}


def _app_defaults(app: str) -> dict[str, object]:
    """Constructor defaults of ``app``'s kwargs (used when a hand-written
    draw omits them)."""
    params = inspect.signature(APP_REGISTRY[app]).parameters.values()
    return {p.name: p.default for p in params if p.default is not p.empty}


# ---------------------------------------------------------------------------
# draws


@dataclass(frozen=True)
class FuzzDraw:
    """One point of the draw space — everything needed to rebuild the run.

    ``app_kwargs`` and ``knobs`` are sorted key/value tuples so the
    dataclass stays hashable and its JSON encoding canonical; ``seed``
    and ``index`` record provenance (which stream position produced it)
    but are excluded from :meth:`key`, so the same configuration drawn
    by two different streams deduplicates to one corpus entry.
    """

    app: str
    app_kwargs: tuple[tuple[str, object], ...]
    system: str
    nprocs: int
    scenario: str | None = None
    knobs: tuple[tuple[str, float | int], ...] = ()
    observers: tuple[str, ...] = ()
    seed: int = 0
    index: int = 0

    @property
    def verify(self) -> bool:
        """RacyDemo's verify() documents its lost updates; skip it."""
        return self.app != "RacyDemo"

    def factory(self) -> AppFactory:
        return AppFactory(self.app, **dict(self.app_kwargs))

    def config(self) -> MachineConfig:
        cfg = MachineConfig(nprocs=self.nprocs)
        if self.scenario is not None:
            cfg = apply_scenario(self.scenario, cfg, dict(self.knobs))
        return cfg

    def key(self) -> str:
        """Stable identity of the *configuration* (not the provenance)."""
        doc = self.to_doc()
        doc.pop("seed", None)
        doc.pop("index", None)
        text = json.dumps(doc, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def describe(self) -> str:
        parts = [f"{self.app}/{self.system} p{self.nprocs}"]
        if self.scenario is not None:
            parts.append(self.scenario)
        if self.observers:
            parts.append("+".join(self.observers))
        return " ".join(parts)

    def to_doc(self) -> dict:
        return {
            "app": self.app,
            "app_kwargs": {k: v for k, v in self.app_kwargs},
            "system": self.system,
            "nprocs": self.nprocs,
            "scenario": self.scenario,
            "knobs": {k: v for k, v in self.knobs},
            "observers": list(self.observers),
            "seed": self.seed,
            "index": self.index,
        }

    @classmethod
    def from_doc(cls, doc: Mapping) -> FuzzDraw:
        kwargs = {
            k: tuple(v) if isinstance(v, list) else v
            for k, v in dict(doc.get("app_kwargs", {})).items()
        }
        return cls(
            app=doc["app"],
            app_kwargs=tuple(sorted(kwargs.items())),
            system=doc["system"],
            nprocs=int(doc["nprocs"]),
            scenario=doc.get("scenario"),
            knobs=tuple(sorted(dict(doc.get("knobs", {})).items())),
            observers=tuple(doc.get("observers", ())),
            seed=int(doc.get("seed", 0)),
            index=int(doc.get("index", 0)),
        )


def _draw_app(rng: Random) -> tuple[str, dict]:
    """Random application + small randomized input kwargs."""
    if rng.random() < 0.12:
        return "RacyDemo", {"rounds": rng.randint(1, 3)}
    app = rng.choice(("Cholesky", "IS", "Maxflow", "Nbody"))
    if app == "Cholesky":
        g = rng.randint(3, 6)
        return app, {"grid": (g, g)}
    if app == "IS":
        return app, {
            "n_keys": rng.choice((64, 128, 256, 512)),
            "nbuckets": rng.choice((8, 16, 32, 64)),
            "seed": rng.randint(0, 3),
        }
    if app == "Maxflow":
        n = rng.randint(8, 24)
        return app, {
            "n": n,
            "extra_edges": rng.randint(max(2, n // 2), 2 * n),
            "seed": rng.randint(0, 3),
        }
    n = rng.randint(8, 24)
    return "Nbody", {
        "n_bodies": n,
        "steps": rng.randint(1, 3),
        "boost_interval": rng.choice((1, 2, 5)),
        "seed": rng.randint(0, 3),
    }


def _draw_knob(rng: Random, knob, nprocs: int) -> float | int:
    """One random knob value, valid for a ``nprocs``-node machine."""
    if isinstance(knob.default, int):
        # Count-like knobs (hot_nodes, limping, n_links): keep them
        # within the machine so selections stay meaningful.
        return rng.randint(1, max(1, min(4, nprocs)))
    if knob.name == "duty":
        # Includes 0.0 — the zero-width burst window edge case.
        return rng.choice((0.0, 0.25, 0.5, 1.0))
    if knob.name == "period":
        return rng.choice((250.0, 1000.0, 4000.0))
    if knob.name == "phase_spread":
        return rng.choice((0.0, 50.0, 250.0))
    # Degradation factors; includes the exactly-1.0 neutral edge case.
    return rng.choice((1.0, 1.5, 2.0, 4.0))


def _draw_scenario(rng: Random, nprocs: int) -> tuple[str | None, dict]:
    if rng.random() < 0.35:
        return None, {}
    name = rng.choice(SCENARIO_NAMES)
    scenario = get_scenario(name)
    return name, {k.name: _draw_knob(rng, k, nprocs) for k in scenario.knobs}


def make_draw(seed: int, index: int) -> FuzzDraw:
    """Draw ``index`` of stream ``seed`` — pure function of its arguments."""
    # The seed prefix is part of the corpus key space: changing it
    # re-seeds every stream and orphans the ledger.
    rng = Random(f"repro-fuzz/1/{seed}/{index}")
    app, kwargs = _draw_app(rng)
    system = rng.choice(SYSTEMS)
    nprocs = rng.choice(NPROC_CHOICES)
    scenario, knobs = _draw_scenario(rng, nprocs)
    n_obs = rng.randint(0, len(OBSERVERS))
    observers = tuple(rng.sample(OBSERVERS, n_obs))
    return FuzzDraw(
        app=app,
        app_kwargs=tuple(sorted(kwargs.items())),
        system=system,
        nprocs=nprocs,
        scenario=scenario,
        knobs=tuple(sorted(knobs.items())),
        observers=observers,
        seed=seed,
        index=index,
    )


def draw_stream(seed: int, start: int = 0) -> Iterator[FuzzDraw]:
    """The (infinite) deterministic draw stream for ``seed``."""
    index = start
    while True:
        yield make_draw(seed, index)
        index += 1


def is_smoke_scale(draw: FuzzDraw) -> bool:
    """True when every scale-bearing kwarg is at smoke scale or below."""
    kwargs = {**_app_defaults(draw.app), **dict(draw.app_kwargs)}
    for name, cap in _SMOKE_CEILING[draw.app].items():
        value = kwargs[name]
        if name == "grid" and isinstance(value, tuple):
            value = max(value)
        if value > cap:
            return False
    return True


# ---------------------------------------------------------------------------
# oracles


def first_divergence(a, b, path: str = "$") -> str | None:
    """Dotted path of the first difference between two JSON-able values."""
    if type(a) is not type(b):
        return path
    if isinstance(a, Mapping):
        for k in a:
            if k not in b:
                return f"{path}.{k}"
            sub = first_divergence(a[k], b[k], f"{path}.{k}")
            if sub is not None:
                return sub
        for k in b:
            if k not in a:
                return f"{path}.{k}"
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path}.len"
        for i, (x, y) in enumerate(zip(a, b)):
            sub = first_divergence(x, y, f"{path}[{i}]")
            if sub is not None:
                return sub
        return None
    return None if a == b else path


def _lookup(doc, path: str):
    node = doc
    for part in path.replace("]", "").split(".")[1:]:
        name, _, idx = part.partition("[")
        if name == "len":
            return len(node)
        if name:
            node = node[name]
        if idx:
            node = node[int(idx)]
    return node


def diff_outcomes(a: Mapping, b: Mapping, a_name: str, b_name: str) -> str | None:
    """None when bit-identical, else a one-line first-divergence report."""
    # One JSON round-trip normalises tuples vs lists; floats survive it
    # exactly, so equality on the round-tripped documents is bit-level.
    ca = json.loads(json.dumps(a))
    cb = json.loads(json.dumps(b))
    if ca == cb:
        return None
    path = first_divergence(ca, cb) or "$"
    try:
        va, vb = _lookup(ca, path), _lookup(cb, path)
        return f"{path}: {a_name}={va!r} vs {b_name}={vb!r}"
    except (KeyError, IndexError, TypeError):
        return f"first divergence at {path}"


#: Events the built-in oracles simulated in this process (engine ops;
#: observer callbacks for the checkers oracle).  :func:`evaluate_draw`
#: reports what its oracles add as :attr:`FuzzEval.events`, which the
#: live progress line shows.  A process-wide tally read as a difference,
#: so oracles keep the plain ``draw -> detail`` contract that callers
#: and tests substitute their own oracles under.
_simulated_events = 0


def _simulated(events: int) -> None:
    global _simulated_events
    _simulated_events += events


#: Attach hook per observer name in :data:`OBSERVERS`; ``"profiler"``
#: has none (the stack sampler is armed around the run instead).
ATTACH = {
    "checked": InvariantChecker.attach,
    "tracer": partial(TracingMemory.attach, max_events=100_000),
    "metrics": partial(MetricsCollector.attach, interval=500.0),
    "attrib": AttributionCollector.attach,
}


def run_outcome(
    draw: FuzzDraw, observers: tuple[str, ...] = (), hooks: tuple[Callable, ...] = ()
) -> dict:
    """One run of the draw's machine -> its :func:`capture_outcome` document.

    Every name in ``observers`` but ``"profiler"`` subscribes an engine
    observer, in the given order; ``"profiler"`` arms the stack sampler
    around the run, wherever it sits in that order.  ``hooks`` attach
    after them (:func:`use_reference_engine` for the reference run).
    """
    attach = tuple(ATTACH[name] for name in observers if name != "profiler")
    with HostProfiler() if "profiler" in observers else nullcontext():
        machine, result, *_ = run_machine(
            draw.factory()(), draw.system, draw.config(), verify=draw.verify, attach=attach + hooks
        )
    outcome = capture_outcome(machine, result)
    _simulated(outcome["ops"])
    return outcome


def oracle_reference(draw: FuzzDraw) -> str | None:
    """Oracle 1: the bare wheel run is bit-identical to the reference
    engine's run and, when the draw names observers, to the wheel run
    they observe."""
    bare = run_outcome(draw)
    ref = run_outcome(draw, hooks=(use_reference_engine,))
    details = [diff_outcomes(bare, ref, "wheel", "reference")]
    if draw.observers:
        observed = run_outcome(draw, draw.observers)
        details.append(diff_outcomes(bare, observed, "bare", "+".join(draw.observers)))
    return "; ".join(d for d in details if d) or None


_STATIC_CACHE: dict[str, object] = {}


def _static_report(app: str):
    report = _STATIC_CACHE.get(app)
    if report is None:
        from .static import analyze_app_module, repo_root

        rel = f"src/repro/apps/{APP_MODULES[app]}"
        report = analyze_app_module(repo_root() / rel, rel)
        _STATIC_CACHE[app] = report
    return report


def oracle_checkers(draw: FuzzDraw) -> str | None:
    """Oracle 2: dynamic findings ⊆ static findings; clean apps stay clean."""
    from .checkers.runner import execute_check

    spec = JobSpec(
        factory=draw.factory(),
        system=draw.system,
        config=draw.config(),
        verify=draw.verify,
    )
    outcome = execute_check(spec)
    _simulated(outcome.events)
    static = _static_report(draw.app)
    dynamic = {race.array for race in outcome.races.races}
    extra = sorted(dynamic - static.race_labels)
    if extra:
        return f"dynamic race(s) on arrays never statically flagged: {extra}"
    if not static.race_labels and not outcome.races.clean:
        return f"{outcome.races.total} dynamic race(s) on a statically clean app"
    if outcome.violation_total:
        return f"{outcome.violation_total} protocol invariant violation(s)"
    return None


#: Oracle registry; tests may pass their own mapping to inject faults.
ORACLE_FUNCS: dict[str, Callable[[FuzzDraw], str | None]] = {
    "reference": oracle_reference,
    "checkers": oracle_checkers,
}


# ---------------------------------------------------------------------------
# evaluation (run_jobs-compatible spec/result pair)


@dataclass(frozen=True)
class FuzzJob:
    """Pool/cache-compatible spec: one draw + the oracles to run."""

    draw: FuzzDraw
    oracles: tuple[str, ...] = ORACLES

    @property
    def factory(self) -> AppFactory:
        # Telemetry heartbeat label (repro.core.parallel._spec_label).
        return self.draw.factory()

    @property
    def system(self) -> str:
        return self.draw.system

    def fingerprint(self) -> str:
        return f"draw={self.draw.key()};oracles={','.join(self.oracles)}"


@dataclass
class FuzzEval:
    """Outcome of evaluating one draw against the selected oracles."""

    key: str
    #: "ok" | "mismatch" | "invalid" (the draw itself failed to build).
    status: str
    failures: tuple[dict, ...] = ()
    cached: bool = False
    #: Events the oracles simulated, and the host seconds they took.
    events: int = 0
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def evaluate_draw(
    draw: FuzzDraw,
    oracles: tuple[str, ...] = ORACLES,
    oracle_funcs: Mapping[str, Callable[[FuzzDraw], str | None]] | None = None,
) -> FuzzEval:
    """Run the selected oracles over one draw.

    An oracle returning a non-empty detail string — or crashing — is a
    mismatch; a draw whose config/factory cannot even be built is
    ``invalid`` (the shrinker uses this to step over candidates that
    leave the valid draw space).
    """
    funcs = ORACLE_FUNCS if oracle_funcs is None else oracle_funcs
    try:
        draw.config()
        draw.factory()
    except Exception as exc:
        detail = f"{exc.__class__.__name__}: {exc}"
        return FuzzEval(
            key=draw.key(),
            status="invalid",
            failures=({"oracle": "draw", "detail": detail},),
        )
    failures = []
    events0 = _simulated_events
    t0 = time.perf_counter()
    for name in oracles:
        try:
            detail = funcs[name](draw)
        except Exception as exc:  # a crash is a finding too
            detail = f"oracle crashed: {exc.__class__.__name__}: {exc}"
        if detail:
            failures.append({"oracle": name, "detail": detail})
    return FuzzEval(
        key=draw.key(),
        status="mismatch" if failures else "ok",
        failures=tuple(failures),
        events=_simulated_events - events0,
        elapsed=time.perf_counter() - t0,
    )


def evaluate_job(job: FuzzJob) -> FuzzEval:
    """Module-level executor for :func:`repro.core.parallel.run_jobs`."""
    return evaluate_draw(job.draw, job.oracles)


# ---------------------------------------------------------------------------
# shrinker


def _with_kwargs(draw: FuzzDraw, kwargs: dict) -> FuzzDraw:
    return replace(draw, app_kwargs=tuple(sorted(kwargs.items())))


def _scale_candidates(draw: FuzzDraw) -> Iterator[FuzzDraw]:
    """Smaller-input variants of the draw, most aggressive first."""
    kwargs = dict(draw.app_kwargs)
    defaults = _app_defaults(draw.app)
    if draw.app == "Cholesky":
        grid = kwargs.get("grid", defaults["grid"])
        side = max(grid) if isinstance(grid, tuple) else int(grid)
        for cand in (3, 4):
            if cand < side:
                yield _with_kwargs(draw, {**kwargs, "grid": (cand, cand)})
    elif draw.app == "IS":
        n = kwargs.get("n_keys", defaults["n_keys"])
        for cand in (64, 128):
            if cand < n:
                yield _with_kwargs(draw, {**kwargs, "n_keys": cand})
        b = kwargs.get("nbuckets", defaults["nbuckets"])
        for cand in (8, 16):
            if cand < b:
                yield _with_kwargs(draw, {**kwargs, "nbuckets": cand})
    elif draw.app == "Maxflow":
        n = kwargs.get("n", defaults["n"])
        edges = kwargs.get("extra_edges", defaults["extra_edges"])
        for cand in (8, 12):
            if cand < n:
                yield _with_kwargs(
                    draw, {**kwargs, "n": cand, "extra_edges": min(edges, 2 * cand)}
                )
        if edges > 2 * n:
            yield _with_kwargs(draw, {**kwargs, "extra_edges": 2 * n})
    elif draw.app == "Nbody":
        n = kwargs.get("n_bodies", defaults["n_bodies"])
        for cand in (8, 12):
            if cand < n:
                yield _with_kwargs(draw, {**kwargs, "n_bodies": cand})
        if kwargs.get("steps", defaults["steps"]) > 1:
            yield _with_kwargs(draw, {**kwargs, "steps": 1})
    elif draw.app == "RacyDemo":
        if kwargs.get("rounds", defaults["rounds"]) > 1:
            yield _with_kwargs(draw, {**kwargs, "rounds": 1})


def _shrink_candidates(draw: FuzzDraw) -> Iterator[FuzzDraw]:
    """One round of smaller variants: nprocs, then input scale, then
    degradation knobs, then observers."""
    for p in (1, 2, 4):
        if p < draw.nprocs:
            yield replace(draw, nprocs=p)
    yield from _scale_candidates(draw)
    if draw.scenario is not None:
        yield replace(draw, scenario=None, knobs=())
        defaults = get_scenario(draw.scenario).knob_defaults()
        for name, value in draw.knobs:
            if name in defaults and value != defaults[name]:
                neutral = dict(draw.knobs)
                neutral[name] = defaults[name]
                yield replace(draw, knobs=tuple(sorted(neutral.items())))
    if draw.observers:
        yield replace(draw, observers=())
        if len(draw.observers) > 1:
            for i in range(len(draw.observers)):
                kept = draw.observers[:i] + draw.observers[i + 1 :]
                yield replace(draw, observers=kept)


def failure_predicate(
    oracles: tuple[str, ...],
    oracle_funcs: Mapping[str, Callable] | None = None,
) -> Callable[[FuzzDraw], bool]:
    """Predicate for :func:`shrink_draw`: does the mismatch still show?"""

    def still_failing(draw: FuzzDraw) -> bool:
        return evaluate_draw(draw, oracles, oracle_funcs).status == "mismatch"

    return still_failing


def shrink_draw(
    draw: FuzzDraw,
    still_failing: Callable[[FuzzDraw], bool],
    max_attempts: int = 200,
) -> tuple[FuzzDraw, int]:
    """Greedy delta debugging: repeatedly take the first smaller variant
    that still fails, until no candidate fails or the attempt budget is
    spent.  Returns ``(minimised draw, evaluations used)``."""
    current = draw
    attempts = 0
    progressed = True
    while progressed and attempts < max_attempts:
        progressed = False
        for candidate in _shrink_candidates(current):
            if attempts >= max_attempts:
                break
            attempts += 1
            if still_failing(candidate):
                current = candidate
                progressed = True
                break
    return current, attempts


# ---------------------------------------------------------------------------
# corpus ledger + repro files


def load_corpus(path: str | Path) -> dict[str, dict]:
    """key -> record mapping from a JSONL ledger (last record wins)."""
    entries: dict[str, dict] = {}
    ledger = Path(path)
    if not ledger.exists():
        return entries
    for line in ledger.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        key = doc.get("key")
        if key:
            entries[key] = doc
    return entries


def append_corpus(path: str | Path, records: list[dict]) -> None:
    """Append records to the JSONL ledger (created on first use)."""
    if not records:
        return
    ledger = Path(path)
    ledger.parent.mkdir(parents=True, exist_ok=True)
    with ledger.open("a", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def corpus_record(draw: FuzzDraw, ev: FuzzEval, oracles: tuple[str, ...]) -> dict:
    record = {
        "key": ev.key,
        "seed": draw.seed,
        "index": draw.index,
        "app": draw.app,
        "system": draw.system,
        "nprocs": draw.nprocs,
        "scenario": draw.scenario,
        "observers": list(draw.observers),
        "oracles": list(oracles),
        "status": ev.status,
    }
    if ev.failures:
        record["failures"] = list(ev.failures)
    return record


def reproduce_command(path: str | Path) -> str:
    """The one-line command that replays a repro file."""
    path = Path(path)
    try:
        path = path.relative_to(Path.cwd())
    except ValueError:
        pass
    return f"python -m repro fuzz --replay {path.as_posix()}"


def write_repro(
    draw: FuzzDraw,
    ev: FuzzEval,
    directory: str | Path = DEFAULT_REPRO_DIR,
    shrunk_from: FuzzDraw | None = None,
) -> Path:
    """Write a commit-ready repro file; returns its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    oracle = ev.failures[0]["oracle"] if ev.failures else "unknown"
    path = directory / f"fuzz_{oracle}_{draw.key()}.json"
    doc = {
        "command": reproduce_command(path),
        "draw": draw.to_doc(),
        "failures": list(ev.failures),
    }
    if shrunk_from is not None:
        doc["shrunk_from"] = shrunk_from.to_doc()
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


def replay_repro(
    path: str | Path,
    oracle_funcs: Mapping[str, Callable] | None = None,
) -> tuple[FuzzDraw, FuzzEval]:
    """Re-evaluate a repro file's draw against its recorded oracles."""
    doc = json.loads(Path(path).read_text())
    draw = FuzzDraw.from_doc(doc["draw"])
    funcs = ORACLE_FUNCS if oracle_funcs is None else oracle_funcs
    recorded = tuple(
        dict.fromkeys(
            f["oracle"] for f in doc.get("failures", ()) if f.get("oracle") in funcs
        )
    )
    oracles = recorded or tuple(funcs)
    return draw, evaluate_draw(draw, oracles, oracle_funcs)


# ---------------------------------------------------------------------------
# the harness


@dataclass
class FuzzReport:
    """Summary of one ``repro fuzz`` session."""

    seed: int
    budget: float
    elapsed: float
    drawn: int
    evaluated: int
    skipped: int
    mismatches: list[dict]
    repro_paths: list[str]
    ledger: str

    @property
    def clean(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        lines = [
            f"fuzz seed={self.seed}: {self.evaluated} draw(s) evaluated in "
            f"{self.elapsed:.1f}s ({self.skipped} already in corpus), "
            f"{len(self.mismatches)} mismatch(es)",
            f"corpus ledger: {self.ledger}",
        ]
        for record in self.mismatches:
            failure = (record.get("failures") or [{}])[0]
            lines.append(
                f"  MISMATCH [{failure.get('oracle', '?')}] "
                f"{record['app']}/{record['system']} p{record['nprocs']}: "
                f"{failure.get('detail', '')}"
            )
        for path in self.repro_paths:
            lines.append(f"  repro: {reproduce_command(path)}")
        return "\n".join(lines)

    def to_doc(self) -> dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "elapsed": round(self.elapsed, 3),
            "drawn": self.drawn,
            "evaluated": self.evaluated,
            "skipped": self.skipped,
            "mismatches": self.mismatches,
            "repro_paths": self.repro_paths,
            "ledger": self.ledger,
            "clean": self.clean,
        }


def run_fuzz(
    budget: float = 60.0,
    seed: int = 0,
    max_draws: int | None = None,
    jobs: int | None = 1,
    oracles: tuple[str, ...] = ORACLES,
    ledger: str | Path = DEFAULT_LEDGER,
    repro_dir: str | Path = DEFAULT_REPRO_DIR,
    resume: bool = True,
    cache: ResultCache | None = None,
    oracle_funcs: Mapping[str, Callable] | None = None,
    shrink_attempts: int = 200,
) -> FuzzReport:
    """Run the fuzzing session: draw, dedup, evaluate, shrink, record.

    ``budget`` bounds host wall-clock seconds (no new batch starts after
    it is spent); ``max_draws`` bounds evaluated draws.  With ``resume``
    (the default) draws whose key is already in the ledger are skipped,
    so successive sessions extend coverage instead of repeating it.
    ``oracle_funcs`` overrides the oracle registry (tests inject faulty
    oracles through it); overriding it forces in-process evaluation.
    """
    log = get_logger()
    start = time.perf_counter()
    known = set(load_corpus(ledger)) if resume else set()
    resumed = len(known)
    batch_size = max(1, resolve_jobs(jobs))
    stream = draw_stream(seed)
    new_records: list[dict] = []
    mismatches: list[dict] = []
    repro_paths: list[str] = []
    drawn = evaluated = skipped = 0
    limit = max_draws if max_draws is not None else float("inf")
    # Backstop when the corpus already covers (nearly) the whole stream:
    # stop after this many consecutive dedup skips.
    max_consecutive_skips = 10_000
    consecutive_skips = 0
    while (
        evaluated < limit
        and time.perf_counter() - start < budget
        and consecutive_skips < max_consecutive_skips
    ):
        batch: list[FuzzDraw] = []
        while (
            len(batch) < batch_size
            and evaluated + len(batch) < limit
            and consecutive_skips < max_consecutive_skips
        ):
            draw = next(stream)
            drawn += 1
            key = draw.key()
            if key in known:
                skipped += 1
                consecutive_skips += 1
                continue
            consecutive_skips = 0
            known.add(key)
            batch.append(draw)
        if not batch:
            break
        if oracle_funcs is None:
            specs = [FuzzJob(d, tuple(oracles)) for d in batch]
            evals = run_jobs(specs, jobs=jobs, cache=cache, executor=evaluate_job)
        else:
            evals = [evaluate_draw(d, oracles, oracle_funcs) for d in batch]
        batch_records = []
        for draw, ev in zip(batch, evals):
            evaluated += 1
            record = corpus_record(draw, ev, tuple(oracles))
            if ev.status != "ok":
                log.warn(
                    f"fuzz mismatch at seed={draw.seed} index={draw.index} "
                    f"({draw.describe()}); shrinking"
                )
                failed = tuple(
                    dict.fromkeys(
                        f["oracle"]
                        for f in ev.failures
                        if f["oracle"] in (oracle_funcs or ORACLE_FUNCS)
                    )
                ) or tuple(oracles)
                shrunk, attempts = shrink_draw(
                    draw, failure_predicate(failed, oracle_funcs), shrink_attempts
                )
                shrunk_ev = evaluate_draw(shrunk, failed, oracle_funcs)
                if not shrunk_ev.failures:
                    shrunk, shrunk_ev = draw, ev
                path = write_repro(shrunk, shrunk_ev, repro_dir, shrunk_from=draw)
                record["shrunk"] = shrunk.to_doc()
                record["shrink_evals"] = attempts
                record["repro"] = str(path)
                mismatches.append(record)
                repro_paths.append(str(path))
            batch_records.append(record)
        # Flush per batch so an interrupted session still extends the
        # ledger (and CI keeps the artifact on failure).
        append_corpus(ledger, batch_records)
        new_records.extend(batch_records)
    elapsed = time.perf_counter() - start
    log.info(
        f"fuzz: {evaluated} evaluated, {skipped} skipped (corpus had {resumed}), "
        f"{len(mismatches)} mismatch(es), {elapsed:.1f}s"
    )
    return FuzzReport(
        seed=seed,
        budget=budget,
        elapsed=elapsed,
        drawn=drawn,
        evaluated=evaluated,
        skipped=skipped,
        mismatches=mismatches,
        repro_paths=repro_paths,
        ledger=str(ledger),
    )


__all__ = [
    "APP_MODULES",
    "ATTACH",
    "DEFAULT_LEDGER",
    "DEFAULT_REPRO_DIR",
    "NPROC_CHOICES",
    "OBSERVERS",
    "ORACLES",
    "ORACLE_FUNCS",
    "SYSTEMS",
    "FuzzDraw",
    "FuzzEval",
    "FuzzJob",
    "FuzzReport",
    "append_corpus",
    "corpus_record",
    "diff_outcomes",
    "draw_stream",
    "evaluate_draw",
    "evaluate_job",
    "failure_predicate",
    "first_divergence",
    "is_smoke_scale",
    "load_corpus",
    "make_draw",
    "oracle_checkers",
    "oracle_reference",
    "replay_repro",
    "reproduce_command",
    "run_fuzz",
    "run_outcome",
    "shrink_draw",
    "write_repro",
]
