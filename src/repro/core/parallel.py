"""Process-pool fan-out and result caching for studies and sweeps.

The paper's methodology is embarrassingly parallel: a study runs the
same application on five independent memory systems, a sweep runs one
system at many parameter values, and no run shares state with any
other.  This module exploits that structure:

* :class:`JobSpec` — a picklable description of one simulation run
  (application factory + memory system + :class:`MachineConfig`);
* :func:`execute_job` — runs one spec and returns a :class:`JobResult`
  whose payload (a :class:`SimResult` plus the traffic summary) is
  itself picklable, so nothing heavyweight — in particular no
  :class:`~repro.runtime.context.Machine` — crosses the pool boundary;
* :func:`run_jobs` — submits specs to a ``ProcessPoolExecutor`` one
  future each and lands every result as it finishes: stored in spec
  order, written to the optional on-disk :class:`ResultCache` and
  reported to the telemetry session by the parent.  A failing job
  never discards its finished siblings; its error is re-raised after
  they land.  Only what a pool cannot run (``jobs == 1``, a single
  pending spec, an unpicklable spec, a host that cannot build the
  pool) runs in-process;
* :class:`ResultCache` — a key → entry store; :func:`run_jobs` owns the
  key (:func:`cache_key`: executor, job spec, schema and code
  fingerprint), so repeated studies, sweeps and checks are near-free
  while any change to the simulator's source invalidates every entry.

See docs/performance.md for the architecture and cache-invalidation
rules; ``tests/test_parallel.py`` pins that pool, cache and serial runs
give identical results.
"""
# lint: ok-module[wall-clock] — measurement harness: wall-clock here times the
# host, never the simulation; simulated timing comes only from cycle counts.

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import time
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path

from ..apps.base import Application, run_machine
from ..apps.factory import AppFactory
from ..config import MachineConfig
from ..obs import telemetry
from ..obs.log import configure as _configure_logger, get_logger
from ..sim.stats import SimResult

#: Environment variable overriding the default on-disk cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Bump to invalidate every cache entry independently of source changes.
#: 2: SimResult gained the ``ops`` field (manifests report events/sec).
#: 3: JobResult lost ``zstats``; keys name the executor.
CACHE_SCHEMA = 3


# ---------------------------------------------------------------------------
# job specification and execution


@dataclass(frozen=True)
class JobSpec:
    """One simulation run: application factory + system + configuration.

    ``factory`` should be an :class:`~repro.apps.factory.AppFactory`
    (or any picklable zero-argument callable) for the spec to run in a
    worker process and to be cacheable; an unpicklable factory (e.g. a
    lambda) still executes, just in-process and uncached.
    """

    factory: Callable[[], Application]
    system: str
    config: MachineConfig
    verify: bool = True
    max_ops: int | None = None

    def fingerprint(self) -> str:
        """Stable identity of this spec (part of its :func:`cache_key`).

        Raises ``ValueError`` for factories with no stable identity.
        """
        if isinstance(self.factory, AppFactory):
            fact = repr(self.factory)
        else:
            try:
                fact = pickle.dumps(self.factory, protocol=4).hex()
            except Exception:
                raise ValueError(
                    f"factory {self.factory!r} is not picklable; "
                    "use repro.apps.AppFactory for cacheable jobs"
                ) from None
        return (
            f"factory={fact};system={self.system};"
            f"config={self.config!r};verify={self.verify};max_ops={self.max_ops}"
        )


@dataclass
class JobResult:
    """Picklable payload of one run — everything a study/sweep needs.

    Shipping this instead of a ``Machine`` keeps the pool (and the
    cache) cheap: a :class:`SimResult` is a few KB of counters.
    """

    system: str
    result: SimResult
    #: Canonical application name (``Application.name``).
    app: str = ""
    #: ``memsys.traffic_summary()`` of the run's machine (the z-machine's
    #: also carries ``shared_writes`` and ``network_cycles``).
    traffic: dict[str, float] = field(default_factory=dict)
    #: Wall-clock seconds the simulation took (when freshly executed).
    elapsed: float = 0.0
    #: Whether this result was served from the on-disk cache.
    cached: bool = False

    @property
    def events(self) -> int:
        """Simulated events (engine ops) of the run."""
        return self.result.ops


def execute_job(spec: JobSpec) -> JobResult:
    """Run one :class:`JobSpec` in the current process."""
    t0 = time.perf_counter()
    app = spec.factory()
    machine, result = run_machine(
        app, spec.system, spec.config, verify=spec.verify, max_ops=spec.max_ops
    )
    return JobResult(
        system=machine.system_name,
        result=result,
        app=app.name,
        traffic=machine.memsys.traffic_summary(),
        elapsed=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# on-disk result cache


def code_fingerprint() -> str:
    """Hash of every ``repro`` source file — the cache's code version.

    Any edit to the simulator invalidates all cached results, which is
    the conservative rule: results are only reused when the code that
    would recompute them is byte-identical.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
        _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


_CODE_FINGERPRINT: str | None = None


def cache_key(spec, executor: Callable = execute_job) -> str:
    """The one cache key of ``spec`` run by ``executor``.

    sha256 over (executor identity, ``spec.fingerprint()``,
    :data:`CACHE_SCHEMA`, :func:`code_fingerprint`), so the same spec
    under two executors (a plain run and an instrumented check) gets two
    entries.  Raises ``ValueError`` for a spec with no stable identity.
    """
    text = (
        f"{executor.__module__}.{executor.__qualname__}|{spec.fingerprint()}"
        f"|schema={CACHE_SCHEMA}|code={code_fingerprint()}"
    )
    return hashlib.sha256(text.encode()).hexdigest()


class ResultCache:
    """Directory of pickled run results, one file per :func:`cache_key`.

    Entries carry the code fingerprint inside their key, so stale
    results are never *returned* — they are simply unreachable garbage
    that :meth:`clear` removes.
    """

    #: File inside the cache directory accumulating lifetime counters.
    STATS_FILE = "stats.json"

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory).expanduser()

    @classmethod
    def default(cls) -> ResultCache:
        """Cache at ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
        return cls(os.environ.get(CACHE_DIR_ENV, "~/.cache/repro"))

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def get(self, key: str):
        """The entry stored under ``key``, or ``None`` on a miss."""
        try:
            with open(self._path(key), "rb") as fh:
                return pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            return None

    def put(self, key: str, entry) -> None:
        """Store ``entry`` under ``key`` (atomic; best-effort)."""
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(entry, fh, protocol=4)
            os.replace(tmp, self._path(key))
        except OSError:
            pass

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def size(self) -> tuple[int, int]:
        """(number of entries, total bytes) on disk."""
        entries = 0
        total_bytes = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.pkl"):
                try:
                    total_bytes += path.stat().st_size
                    entries += 1
                except OSError:
                    pass
        return entries, total_bytes

    def _stats_path(self) -> Path:
        return self.directory / self.STATS_FILE

    def lifetime_stats(self) -> dict:
        """Accumulated hit/miss counters across every recorded session."""
        try:
            with open(self._stats_path()) as fh:
                doc = json.load(fh)
            return {"hits": int(doc.get("hits", 0)), "misses": int(doc.get("misses", 0))}
        except (OSError, ValueError):
            return {"hits": 0, "misses": 0}

    def persist_stats(self, hits: int, misses: int) -> None:
        """Fold one batch's hit/miss counts into the on-disk totals.

        Called by :func:`run_jobs` once per batch.  Best-effort: a
        read-only cache directory must never fail a run.
        """
        if hits == 0 and misses == 0:
            return
        totals = self.lifetime_stats()
        totals["hits"] += hits
        totals["misses"] += misses
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "w") as fh:
                json.dump(totals, fh)
            os.replace(tmp, self._stats_path())
        except OSError:
            pass


# ---------------------------------------------------------------------------
# fan-out


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a worker count: ``None``/``0`` means one per CPU."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _pool_init(logger_state: dict) -> None:
    """Pool-worker initializer: mirror the parent's logger configuration
    (so ``--verbose/--quiet/--json`` hold in children too)."""
    _configure_logger(**logger_state)


def _spec_label(spec) -> tuple[str, str]:
    """(app, system) display names for a spec's heartbeat records."""
    factory = getattr(spec, "factory", None)
    app = (
        getattr(factory, "app", None)  # AppFactory("IS", ...)
        or getattr(factory, "name", None)
        or getattr(factory, "__name__", factory.__class__.__name__ if factory else "?")
    )
    return str(app), str(getattr(spec, "system", "?"))


def _open_pool(nworkers: int, pending: list, executor: Callable):
    """A process pool for ``pending``, or ``None`` to run in-process.

    In-process is reserved for what a pool cannot run: one worker, a
    single pending spec, an unpicklable spec or executor, or a host
    that refuses to build the pool (logged).
    """
    if nworkers <= 1 or len(pending) <= 1:
        return None
    try:
        pickle.dumps((executor, pending), protocol=4)
    except Exception:
        return None
    try:
        return ProcessPoolExecutor(
            max_workers=min(nworkers, len(pending)),
            initializer=_pool_init,
            initargs=(get_logger().state(),),
        )
    except OSError as exc:
        get_logger().warn(f"process pool unavailable ({exc}); running jobs in-process")
        return None


def _outcomes(
    pending: list[tuple[int, JobSpec]], jobs: int | None, executor: Callable, tele, first: int
):
    """Run ``pending`` and yield ``(index, job, error)`` as each finishes.

    Emits each job's ``start`` record as it is started or submitted,
    numbered from ``first`` (the session number of spec 0).
    """
    pool = _open_pool(resolve_jobs(jobs), [s for _, s in pending], executor)
    if pool is None:
        for i, spec in pending:
            if tele is not None:
                tele.emit(telemetry.job_started(first + i, *_spec_label(spec)))
            try:
                job = executor(spec)
            except Exception as exc:
                yield i, None, exc
            else:
                yield i, job, None
        return
    with pool:
        futures = {}
        for i, spec in pending:
            if tele is not None:
                tele.emit(telemetry.job_started(first + i, *_spec_label(spec)))
            futures[pool.submit(executor, spec)] = i
        for future in as_completed(futures):
            error = future.exception()
            yield futures[future], future.result() if error is None else None, error


def _key_or_none(spec, executor: Callable) -> str | None:
    try:
        return cache_key(spec, executor)
    except ValueError:
        return None


def run_jobs(
    specs: Sequence[JobSpec],
    jobs: int | None = 1,
    cache: ResultCache | None = None,
    executor: Callable = execute_job,
) -> list[JobResult]:
    """Execute ``specs`` and return their results *in spec order*.

    ``jobs > 1`` fans the cache misses out over a process pool of that
    many workers (``None``/``0`` = one per CPU).  Every result lands
    the same way, whether a cache hit, an in-process run or a pool
    future: it is stored in spec order, cached and reported to the
    telemetry session as soon as it finishes.  A job that raises does
    not stop its siblings; once all of them have landed, the first
    failure in spec order is re-raised.  Results are identical at any
    worker count (simulations are deterministic), only wall-clock
    differs.

    ``executor`` maps one spec to one result and defaults to
    :func:`execute_job`; any module-level callable over specs that have
    a ``fingerprint()`` and results that have ``cached``, ``events`` and
    ``elapsed`` attributes works (``repro check`` passes
    ``repro.analysis.checkers.execute_check``, ``repro fuzz``
    ``repro.analysis.fuzz.evaluate_job``).  Each spec is cached
    under :func:`cache_key` of (spec, executor); a spec with no stable
    fingerprint always runs.  The batch's hits (results with ``cached``
    set) and misses go to the cache's ``stats.json``.  Telemetry numbers
    jobs across the session, so several runs under one session count
    up instead of restarting at 1.
    """
    specs = list(specs)
    tele = telemetry.get_session()
    keys = [None if cache is None else _key_or_none(spec, executor) for spec in specs]
    first = tele.attach_total(len(specs)) if tele is not None else 0
    results: list[JobResult | None] = [None] * len(specs)
    failures: dict[int, Exception] = {}

    def land(i: int, job) -> None:
        results[i] = job
        if keys[i] is not None and not job.cached:
            cache.put(keys[i], job)
        if tele is not None:
            tele.emit(
                telemetry.job_finished(
                    first + i,
                    *_spec_label(specs[i]),
                    events=job.events,
                    elapsed_s=job.elapsed,
                    cached=bool(job.cached),
                )
            )

    pending = []
    for i, spec in enumerate(specs):
        hit = cache.get(keys[i]) if keys[i] is not None else None
        if hit is not None:
            hit.cached = True
            land(i, hit)
        else:
            pending.append((i, spec))
    for i, job, error in _outcomes(pending, jobs, executor, tele, first):
        if error is not None:
            failures[i] = error
        else:
            land(i, job)
    if cache is not None:
        cache.persist_stats(len(specs) - len(pending), len(pending))
    if failures:
        raise failures[min(failures)]
    return results


__all__ = [
    "CACHE_DIR_ENV",
    "JobResult",
    "JobSpec",
    "ResultCache",
    "cache_key",
    "code_fingerprint",
    "execute_job",
    "resolve_jobs",
    "run_jobs",
]
