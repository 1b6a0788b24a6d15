"""The parallel execution layer: pool fan-out, caching, determinism.

Covers the guarantees docs/performance.md documents: serial and
parallel execution produce bit-identical results in deterministic
order, every run payload is picklable, and the on-disk cache hits only
when (job spec, code fingerprint) both match.
"""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

from repro import MachineConfig, run_study, table1
from repro.apps import AppFactory, preset, smoke_scale
from repro.core import parallel
from repro.core.parallel import (
    JobSpec,
    ResultCache,
    cache_key,
    code_fingerprint,
    execute_job,
    resolve_jobs,
    run_jobs,
)
from repro.core.sweep import sweep
from repro.obs import telemetry
from repro.sim.engine import DeadlockError

CFG = MachineConfig(nprocs=4)

IS_FACTORY = AppFactory("IS", n_keys=128, nbuckets=16)


def is_specs(systems=("z-mc", "RCinv", "RCupd")) -> list[JobSpec]:
    return [JobSpec(factory=IS_FACTORY, system=s, config=CFG) for s in systems]


# ---------------------------------------------------------------------------
# AppFactory


def test_app_factory_builds_fresh_instances():
    a, b = IS_FACTORY(), IS_FACTORY()
    assert a is not b
    assert a.name == "IS"


def test_app_factory_value_semantics():
    same = AppFactory("IS", nbuckets=16, n_keys=128)  # kwarg order irrelevant
    assert same == IS_FACTORY
    assert hash(same) == hash(IS_FACTORY)
    assert repr(same) == repr(IS_FACTORY)


def test_app_factory_pickle_roundtrip():
    clone = pickle.loads(pickle.dumps(IS_FACTORY))
    assert clone == IS_FACTORY
    assert clone().name == "IS"


def test_app_factory_rejects_unknown_app():
    with pytest.raises(ValueError, match="unknown application"):
        AppFactory("NoSuchApp")


def test_all_presets_are_picklable():
    for factory, _ in smoke_scale().values():
        pickle.loads(pickle.dumps(factory))()


# ---------------------------------------------------------------------------
# payload picklability (regression: nothing heavyweight crosses the pool)


def test_every_job_payload_is_picklable():
    for factory, _ in smoke_scale().values():
        spec = JobSpec(factory=factory, system="RCinv", config=CFG)
        job = execute_job(spec)
        clone = pickle.loads(pickle.dumps(job))
        assert clone.result == job.result
        assert clone.traffic == job.traffic


def test_sweep_points_are_picklable():
    res = sweep(IS_FACTORY, "store_buffer_entries", [1, 4], base_config=CFG, jobs=2)
    for point in res.points:
        clone = pickle.loads(pickle.dumps(point))
        assert clone.result == point.result


def test_sweep_in_process_runs_through_run_jobs(tmp_path):
    out = tmp_path / "sweep.jsonl"
    with telemetry.session(out=out):
        serial = sweep(IS_FACTORY, "store_buffer_entries", [1, 4], base_config=CFG)
    assert len(telemetry.load_records(out)) == 4  # start + finish per point
    pooled = sweep(IS_FACTORY, "store_buffer_entries", [1, 4], base_config=CFG, jobs=2)
    assert [p.result for p in serial.points] == [p.result for p in pooled.points]


# ---------------------------------------------------------------------------
# serial/parallel equivalence and ordering


def test_parallel_results_bit_identical_to_serial():
    specs = is_specs()
    serial = run_jobs(specs, jobs=1)
    pooled = run_jobs(specs, jobs=2)
    assert [j.system for j in pooled] == [j.system for j in serial]
    for a, b in zip(serial, pooled):
        assert a.result == b.result  # SimResult/ProcStats dataclass equality
        assert a.traffic == b.traffic


def test_result_order_follows_spec_order():
    systems = ("RCupd", "z-mc", "RCinv")
    assert [j.system for j in run_jobs(is_specs(systems), jobs=2)] == list(systems)


def test_run_study_jobs_equivalence():
    serial = run_study(IS_FACTORY, CFG, jobs=1)
    pooled = run_study(IS_FACTORY, CFG, jobs=2)
    assert pooled.app_name == serial.app_name == "IS"
    assert pooled.systems == serial.systems


def test_table1_jobs_equivalence():
    factories = {"IS": IS_FACTORY}
    (serial,), _ = table1(factories, CFG, jobs=1)
    (pooled,), _ = table1(factories, CFG, jobs=2)
    assert pooled == serial
    assert pooled.app == "IS"


def test_unpicklable_factory_falls_back_in_process():
    # a lambda cannot cross the pool; run_jobs must still succeed
    baseline = run_jobs(is_specs(("z-mc",)), jobs=1)
    specs = [JobSpec(factory=lambda: IS_FACTORY(), system="z-mc", config=CFG)]
    jobs = run_jobs(specs, jobs=4)
    assert jobs[0].result == baseline[0].result


# ---------------------------------------------------------------------------
# fault isolation: a failing job never discards or re-runs its siblings


def smoke_is_specs() -> list[JobSpec]:
    factory = preset("smoke")["IS"][0]
    cfg = MachineConfig(nprocs=16)
    return [
        JobSpec(factory=factory, system=s, config=cfg)
        for s in ("z-mc", "RCinv", "RCupd", "RCadapt")
    ]


def deadlock_on_rcupd(spec: JobSpec):
    if spec.system == "RCupd":
        raise DeadlockError("injected deadlock")
    return execute_job(spec)


def oserror_in_worker(spec: JobSpec):
    if multiprocessing.parent_process() is not None:
        raise OSError("injected worker fault")
    return execute_job(spec)


@pytest.mark.parametrize("jobs", [1, 2])
def test_failing_job_keeps_finished_siblings(tmp_path, jobs):
    cache = ResultCache(tmp_path / "cache")
    specs = smoke_is_specs()
    out = tmp_path / "telemetry.jsonl"
    with telemetry.session(out=out), pytest.raises(DeadlockError, match="injected"):
        run_jobs(specs, jobs=jobs, cache=cache, executor=deadlock_on_rcupd)
    stored = [cache.get(cache_key(s, deadlock_on_rcupd)) is not None for s in specs]
    assert stored == [True, True, False, True]
    finished = [r["system"] for r in telemetry.load_records(out) if r["event"] == "finish"]
    assert finished == ["z-mc", "RCinv", "RCadapt"]


def test_worker_oserror_raised_not_rerun_in_process():
    with pytest.raises(OSError, match="injected worker fault"):
        run_jobs(smoke_is_specs(), jobs=2, executor=oserror_in_worker)


def test_resolve_jobs():
    assert resolve_jobs(3) == 3
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(0) >= 1
    with pytest.raises(ValueError):
        resolve_jobs(-1)


# ---------------------------------------------------------------------------
# cache behavior


def test_cache_miss_then_hit(tmp_path):
    cache = ResultCache(tmp_path)
    specs = is_specs(("z-mc",))
    first = run_jobs(specs, jobs=1, cache=cache)
    assert [job.cached for job in first] == [False]
    second = run_jobs(specs, jobs=1, cache=cache)
    assert [job.cached for job in second] == [True]
    assert second[0].result == first[0].result
    assert cache.lifetime_stats() == {"hits": 1, "misses": 1}


def test_check_and_plain_run_of_one_spec_get_two_entries(tmp_path):
    """The executor is part of the key: the same JobSpec run plain and
    under the checkers lands in two entries, each served on a rerun."""
    from repro.analysis.checkers import execute_check

    cache = ResultCache(tmp_path)
    (spec,) = is_specs(("RCinv",))
    assert cache_key(spec, execute_job) != cache_key(spec, execute_check)
    for executor in (execute_job, execute_check):
        (first,) = run_jobs([spec], jobs=1, cache=cache, executor=executor)
        assert not first.cached
    assert cache.size()[0] == 2
    plain = run_jobs([spec], jobs=1, cache=cache)
    check = run_jobs([spec], jobs=1, cache=cache, executor=execute_check)
    assert [job.cached for job in plain + check] == [True, True]
    assert plain[0].result.ops > 0 and check[0].races.clean


def test_cache_key_sensitive_to_spec(tmp_path):
    base = is_specs(("RCinv",))[0]
    assert cache_key(base) == cache_key(is_specs(("RCinv",))[0])
    assert cache_key(base) != cache_key(JobSpec(IS_FACTORY, "RCupd", CFG))
    assert cache_key(base) != cache_key(JobSpec(IS_FACTORY, "RCinv", CFG.replace(nprocs=8)))
    other_app = JobSpec(AppFactory("IS", n_keys=256, nbuckets=16), "RCinv", CFG)
    assert cache_key(base) != cache_key(other_app)


def test_cache_invalidated_by_code_change(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    specs = is_specs(("z-mc",))
    first = run_jobs(specs, jobs=1, cache=cache)
    monkeypatch.setattr(parallel, "_CODE_FINGERPRINT", "different-code-version")
    second = run_jobs(specs, jobs=1, cache=cache)
    assert [job.cached for job in first + second] == [False, False]


def test_cache_clear(tmp_path):
    cache = ResultCache(tmp_path)
    run_jobs(is_specs(("z-mc", "RCinv")), jobs=1, cache=cache)
    assert cache.clear() == 2
    assert cache.clear() == 0


def test_cache_ignores_corrupt_entries(tmp_path):
    cache = ResultCache(tmp_path)
    (spec,) = is_specs(("z-mc",))
    run_jobs([spec], jobs=1, cache=cache)
    entry = next(tmp_path.glob("*.pkl"))
    entry.write_bytes(b"not a pickle")
    jobs = run_jobs([spec], jobs=1, cache=cache)
    assert not jobs[0].cached  # recomputed, not crashed


def test_lambda_specs_are_never_cached(tmp_path):
    cache = ResultCache(tmp_path)
    spec = JobSpec(factory=lambda: IS_FACTORY(), system="z-mc", config=CFG)
    first = run_jobs([spec], jobs=1, cache=cache)
    second = run_jobs([spec], jobs=1, cache=cache)
    # no stable fingerprint -> recompute both times
    assert [job.cached for job in first + second] == [False, False]


def test_code_fingerprint_stable():
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 64


def test_sweep_with_cache_hits(tmp_path):
    cache = ResultCache(tmp_path)
    kwargs = dict(base_config=CFG, system="RCupd", cache=cache)
    cold = sweep(IS_FACTORY, "merge_buffer_lines", [1, 2], **kwargs)
    warm = sweep(IS_FACTORY, "merge_buffer_lines", [1, 2], **kwargs)
    assert [job["cached"] for job in warm.manifest["jobs"]] == [True, True]
    assert [p.result for p in warm.points] == [p.result for p in cold.points]


def test_sweep_manifest_reports_cache_store(tmp_path):
    cache = ResultCache(tmp_path)
    result = sweep(IS_FACTORY, "merge_buffer_lines", [1], base_config=CFG, cache=cache)
    block = result.manifest["cache"]
    assert (block["hits"], block["misses"], block["entries"]) == (0, 1, 1)
    assert block["bytes"] == cache.size()[1] > 0
