"""Tests for the differential fuzzing harness (``repro fuzz``).

Covers both oracle families, the delta-debugging shrinker (including
the injected-engine-bug acceptance scenario: a fault is caught, shrunk to
<= 4 processors at smoke scale, and written as a replayable repro file),
and the corpus ledger's resume/dedup round-trips.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis import fuzz
from repro.analysis.fuzz import (
    DEFAULT_LEDGER,
    OBSERVERS,
    ORACLES,
    SYSTEMS,
    FuzzDraw,
    FuzzJob,
    append_corpus,
    diff_outcomes,
    draw_stream,
    evaluate_draw,
    failure_predicate,
    first_divergence,
    is_smoke_scale,
    load_corpus,
    make_draw,
    oracle_checkers,
    oracle_reference,
    replay_repro,
    reproduce_command,
    run_fuzz,
    shrink_draw,
    write_repro,
)


def _draw(app="IS", kwargs=None, system="RCinv", nprocs=2, **rest):
    if kwargs is None:
        kwargs = {"n_keys": 64, "nbuckets": 8, "seed": 0}
    return FuzzDraw(
        app=app,
        app_kwargs=tuple(sorted(kwargs.items())),
        system=system,
        nprocs=nprocs,
        **rest,
    )


# ---------------------------------------------------------------------------
# draws: determinism, round-trips, coverage


def test_make_draw_is_deterministic():
    assert make_draw(7, 3) == make_draw(7, 3)
    stream = draw_stream(7)
    assert [next(stream) for _ in range(4)] == [make_draw(7, i) for i in range(4)]


def test_draw_key_ignores_provenance():
    draw = make_draw(0, 0)
    relabeled = replace(draw, seed=99, index=42)
    assert relabeled.key() == draw.key()
    assert replace(draw, nprocs=draw.nprocs + 1).key() != draw.key()


def test_draw_doc_round_trip():
    for draw in (make_draw(1, i) for i in range(20)):
        doc = json.loads(json.dumps(draw.to_doc()))
        assert FuzzDraw.from_doc(doc) == draw


def test_draw_space_coverage_and_validity():
    draws = [make_draw(0, i) for i in range(200)]
    assert {d.app for d in draws} == set(fuzz.APP_MODULES)
    assert {d.system for d in draws} == set(SYSTEMS)
    assert any(d.scenario is None for d in draws)
    assert {d.scenario for d in draws if d.scenario is not None} >= {"hotspot", "bursty"}
    assert any(d.observers for d in draws)
    assert {obs for d in draws for obs in d.observers} == set(OBSERVERS)
    for draw in draws:
        draw.config()  # raises if the drawn degradation spec is invalid
        draw.factory()


def test_is_smoke_scale():
    assert is_smoke_scale(_draw())
    assert not is_smoke_scale(_draw(kwargs={"n_keys": 512, "nbuckets": 8}))
    assert is_smoke_scale(_draw(app="Cholesky", kwargs={"grid": (4, 4)}))
    assert not is_smoke_scale(_draw(app="Cholesky", kwargs={"grid": (6, 6)}))
    # omitted kwargs fall back to constructor defaults (full scale)
    assert not is_smoke_scale(_draw(app="Nbody", kwargs={}))


# ---------------------------------------------------------------------------
# divergence reporting


def test_first_divergence():
    assert first_divergence({"a": 1}, {"a": 1}) is None
    assert first_divergence({"a": {"b": 1}}, {"a": {"b": 2}}) == "$.a.b"
    assert first_divergence({"a": [1, 2]}, {"a": [1, 3]}) == "$.a[1]"
    assert first_divergence({"a": [1]}, {"a": [1, 2]}) == "$.a.len"
    assert first_divergence({"a": 1}, {"a": 1.5}) == "$.a"  # type mismatch
    assert first_divergence({"a": 1}, {"a": 1, "b": 2}) == "$.b"


def test_diff_outcomes_normalises_tuples_and_reports_values():
    assert diff_outcomes({"x": (1, 2)}, {"x": [1, 2]}, "a", "b") is None
    report = diff_outcomes(
        {"procs": [{"busy": 1.0}]}, {"procs": [{"busy": 2.0}]}, "wheel", "ref"
    )
    assert report == "$.procs[0].busy: wheel=1.0 vs ref=2.0"


def test_committed_ledger_keys_match_their_draws():
    # The ledger's keys are what later sessions skip on: a record whose
    # key its (seed, index) no longer draws would be evaluated again.
    ledger = Path(__file__).resolve().parents[1] / DEFAULT_LEDGER
    records = [json.loads(line) for line in ledger.read_text().splitlines()]
    assert records
    for record in records:
        assert record["key"] == make_draw(record["seed"], record["index"]).key()


# ---------------------------------------------------------------------------
# both oracle families, clean on real draws


def test_oracle_reference_clean():
    assert oracle_reference(_draw()) is None


def test_oracle_decorators_clean():
    # The observed leg of the reference oracle (observers were once
    # called decorators): clean with observers drawn, and vacuously
    # clean without them.
    assert oracle_reference(_draw(observers=("metrics", "checked"))) is None
    assert oracle_reference(_draw(observers=())) is None


def test_oracle_reference_runs_the_bare_run_once(monkeypatch):
    attached = []
    run_machine = fuzz.run_machine

    def counting(*args, **kwargs):
        attached.append(kwargs["attach"])
        return run_machine(*args, **kwargs)

    monkeypatch.setattr(fuzz, "run_machine", counting)
    assert oracle_reference(_draw()) is None
    assert len(attached) == 2  # bare and reference
    attached.clear()
    assert oracle_reference(_draw(observers=("metrics", "profiler"))) is None
    assert len(attached) == 3  # bare, reference and observed
    assert attached[2] == (fuzz.ATTACH["metrics"],)


def test_oracle_checkers_clean_on_clean_app():
    assert oracle_checkers(_draw()) is None


def test_oracle_checkers_tolerates_statically_flagged_races():
    # RacyDemo races by design; the static analyzer flags it, so the
    # dynamic findings are a subset and the oracle stays quiet.
    assert oracle_checkers(_draw(app="RacyDemo", kwargs={"rounds": 2})) is None


def test_evaluate_draw_statuses():
    ok = evaluate_draw(_draw(), oracles=("reference",))
    assert ok.ok and ok.status == "ok" and not ok.failures

    bad_knob = _draw(scenario="hotspot", knobs=(("mem_factor", 0.0),))
    invalid = evaluate_draw(bad_knob, oracles=("reference",))
    assert invalid.status == "invalid"
    assert invalid.failures[0]["oracle"] == "draw"

    def crash(draw):
        raise RuntimeError("boom")

    crashed = evaluate_draw(_draw(), ("reference",), {"reference": crash})
    assert crashed.status == "mismatch"
    assert "oracle crashed: RuntimeError: boom" in crashed.failures[0]["detail"]


def test_fuzz_job_fingerprint_covers_draw_and_oracles():
    draw = make_draw(0, 0)
    a = FuzzJob(draw, ORACLES).fingerprint()
    assert draw.key() in a
    assert FuzzJob(draw, ("reference",)).fingerprint() != a
    assert FuzzJob(replace(draw, nprocs=draw.nprocs + 1), ORACLES).fingerprint() != a


# ---------------------------------------------------------------------------
# injected faults: the reference oracle must see a perturbed engine or
# a perturbing observer


def test_injected_engine_bug_is_caught(monkeypatch):
    from repro.sim.reference import ReferenceEngine

    orig = ReferenceEngine._charge

    def buggy(self, stats, now, res):
        busy = orig(self, stats, now, res)
        stats.busy += 1e-9  # mis-accounts one nano-cycle per access
        return busy

    monkeypatch.setattr(ReferenceEngine, "_charge", buggy)
    detail = oracle_reference(_draw())
    assert detail is not None and "busy" in detail


def test_perturbing_observer_is_caught_and_kept_by_the_shrinker(monkeypatch):
    attach_metrics = fuzz.ATTACH["metrics"]

    def perturbing(machine):
        # One access the bare run never makes, before the run starts.
        machine.memsys.read(0, machine.shm.arrays[0].base, 0.0)
        return attach_metrics(machine)

    monkeypatch.setattr(fuzz, "ATTACH", {**fuzz.ATTACH, "metrics": perturbing})
    draw = _draw(observers=("checked", "metrics", "tracer"))
    detail = oracle_reference(draw)
    assert detail is not None
    assert "bare=" in detail and "vs checked+metrics+tracer=" in detail
    assert "reference=" not in detail  # the engines still agree
    shrunk, _ = shrink_draw(draw, failure_predicate(("reference",)))
    assert shrunk.observers == ("metrics",)


def test_fused_fanout_fault_is_caught(monkeypatch):
    # RCcomp's update callback injects traffic, so routing each ack
    # before its on_arrival moves the timing.  Only the fused fan-out
    # gets the fault: the reference run takes the generic one.
    from repro.network.routed import RoutedNetwork

    fused = RoutedNetwork.fanout

    def acks_first(self, src, dsts, nbytes, start, on_arrival=None):
        if self._generic or on_arrival is None:
            return fused(self, src, dsts, nbytes, start, on_arrival)
        delivered = []
        out = fused(self, src, dsts, nbytes, start, lambda d, a: delivered.append((d, a)))
        for dst, arr in delivered:
            on_arrival(dst, arr)
        return out

    monkeypatch.setattr(RoutedNetwork, "fanout", acks_first)
    draw = _draw(app="Cholesky", kwargs={"grid": (3, 3)}, system="RCcomp", nprocs=4)
    detail = oracle_reference(draw)
    assert detail is not None and "wheel=" in detail and "reference=" in detail


def test_stale_fanout_counter_is_caught(monkeypatch):
    # The fused fan-out sums its float counters in locals and must store
    # them back around on_arrival, whose RCcomp hint sends a message.
    # Dropping the callback's latency, as a missed write-back would,
    # moves only the fused run's traffic counters.
    from repro.network.routed import RoutedNetwork

    fused = RoutedNetwork.fanout

    def stale(self, src, dsts, nbytes, start, on_arrival=None):
        if self._generic or on_arrival is None:
            return fused(self, src, dsts, nbytes, start, on_arrival)

        def forgetful(dst, arr):
            saved = self.stats.latency_cycles
            on_arrival(dst, arr)
            self.stats.latency_cycles = saved

        return fused(self, src, dsts, nbytes, start, forgetful)

    monkeypatch.setattr(RoutedNetwork, "fanout", stale)
    draw = _draw(app="Cholesky", kwargs={"grid": (3, 3)}, system="RCcomp", nprocs=4)
    detail = oracle_reference(draw)
    assert detail is not None and "latency_cycles" in detail
    assert "wheel=" in detail and "reference=" in detail


def test_lagging_settled_horizon_is_caught(monkeypatch):
    # A horizon one latency short of the latest write lets the engine
    # answer still-stalling reads as hits; the reference run asks the
    # z-machine's per-block rule instead.
    from repro.mem.systems.zmachine import ZMachine

    write = ZMachine.write

    def lagging(self, proc, addr, now):
        before = self.settled_horizon
        res = write(self, proc, addr, now)
        if self.settled_horizon != before:
            self.settled_horizon -= self.latency
        return res

    monkeypatch.setattr(ZMachine, "write", lagging)
    detail = oracle_reference(_draw(app="RacyDemo", kwargs={"rounds": 1}, system="z-mc"))
    assert detail is not None and "total_time" in detail


# ---------------------------------------------------------------------------
# shrinker


def _faulty_reference(draw: FuzzDraw) -> str | None:
    """Stub fault model: the 'bug' needs IS and at least two processors."""
    if draw.app == "IS" and draw.nprocs >= 2:
        return "$.procs[0].busy: wheel=1.0 vs reference=2.0"
    return None


FAULTY = {"reference": _faulty_reference}


def test_shrinker_converges_to_smoke_scale():
    big = _draw(
        kwargs={"n_keys": 512, "nbuckets": 64, "seed": 1},
        system="RCupd",
        nprocs=16,
        scenario="slow_links",
        knobs=(("bandwidth_factor", 2.0), ("latency_factor", 4.0), ("n_links", 2)),
        observers=("metrics", "tracer"),
    )
    shrunk, attempts = shrink_draw(big, failure_predicate(("reference",), FAULTY))
    assert shrunk.nprocs == 2  # the fault needs >= 2 procs; greedy stops there
    assert is_smoke_scale(shrunk)
    assert shrunk.scenario is None and shrunk.knobs == ()
    assert shrunk.observers == ()
    assert 0 < attempts < 200


def test_shrinker_respects_attempt_budget():
    big = _draw(kwargs={"n_keys": 512, "nbuckets": 64}, nprocs=16)
    shrunk, attempts = shrink_draw(
        big, failure_predicate(("reference",), FAULTY), max_attempts=1
    )
    assert attempts == 1
    assert shrunk.nprocs <= big.nprocs


def test_shrinker_steps_over_invalid_candidates():
    # A predicate that fails for every *valid* draw: shrinking must not
    # crash when a candidate leaves the valid draw space.
    def always(draw):
        return evaluate_draw(draw, ("reference",), {"reference": lambda d: "x"})
    shrunk, _ = shrink_draw(
        _draw(nprocs=8), lambda d: always(d).status == "mismatch", max_attempts=30
    )
    assert shrunk.nprocs == 1


# ---------------------------------------------------------------------------
# corpus ledger


def test_corpus_round_trip_last_wins(tmp_path):
    ledger = tmp_path / "corpus.jsonl"
    assert load_corpus(ledger) == {}
    append_corpus(ledger, [{"key": "k1", "status": "ok"}, {"key": "k2", "status": "ok"}])
    append_corpus(ledger, [{"key": "k1", "status": "mismatch"}])
    ledger.open("a").write("not json\n\n")  # garbage + blank lines tolerated
    corpus = load_corpus(ledger)
    assert set(corpus) == {"k1", "k2"}
    assert corpus["k1"]["status"] == "mismatch"  # last record wins


def test_run_fuzz_resumes_from_ledger(tmp_path):
    ledger = tmp_path / "corpus.jsonl"
    ok_funcs = {"reference": lambda draw: None}
    first = run_fuzz(
        seed=3, max_draws=5, oracles=("reference",), ledger=ledger,
        repro_dir=tmp_path / "repros", oracle_funcs=ok_funcs,
    )
    assert first.clean and first.evaluated == 5 and first.skipped == 0
    second = run_fuzz(
        seed=3, max_draws=5, oracles=("reference",), ledger=ledger,
        repro_dir=tmp_path / "repros", oracle_funcs=ok_funcs,
    )
    assert second.clean and second.evaluated == 5
    assert second.skipped >= 5  # the first session's draws deduplicate
    assert len(load_corpus(ledger)) == 10
    # resume disabled: the same early draws are evaluated again
    third = run_fuzz(
        seed=3, max_draws=2, oracles=("reference",), ledger=tmp_path / "other.jsonl",
        repro_dir=tmp_path / "repros", resume=False, oracle_funcs=ok_funcs,
    )
    assert third.evaluated == 2 and third.skipped == 0


# ---------------------------------------------------------------------------
# end-to-end: a faulty oracle is caught, shrunk, written, and replayable


def test_run_fuzz_catches_shrinks_and_writes_repro(tmp_path):
    seed = 0
    target = next(
        i for i in range(500) if _faulty_reference(make_draw(seed, i)) is not None
    )
    report = run_fuzz(
        seed=seed,
        max_draws=target + 1,
        oracles=("reference",),
        ledger=tmp_path / "corpus.jsonl",
        repro_dir=tmp_path / "repros",
        oracle_funcs=FAULTY,
    )
    assert not report.clean
    record = report.mismatches[0]
    assert record["status"] == "mismatch"
    assert record["app"] == "IS"
    shrunk = FuzzDraw.from_doc(record["shrunk"])
    assert shrunk.nprocs <= 4
    assert is_smoke_scale(shrunk)
    assert record["shrink_evals"] > 0

    path = record["repro"]
    doc = json.loads(open(path).read())
    assert doc["command"] == reproduce_command(path)
    assert doc["shrunk_from"] == make_draw(seed, target).to_doc()
    assert doc["failures"][0]["oracle"] == "reference"

    # still failing under the fault model...
    draw, ev = replay_repro(path, FAULTY)
    assert draw == shrunk and ev.status == "mismatch"
    # ...and clean once the 'bug' is fixed
    _, fixed = replay_repro(path, {"reference": lambda d: None})
    assert fixed.ok

    # the mismatch and its shrink metadata land in the ledger
    corpus = load_corpus(tmp_path / "corpus.jsonl")
    assert corpus[record["key"]]["status"] == "mismatch"
    assert corpus[record["key"]]["repro"] == path


def test_write_repro_keeps_original_when_shrink_regresses(tmp_path):
    # If the shrunk draw no longer fails, run_fuzz falls back to the
    # original; write_repro itself just records what it is given.
    draw = _draw()
    ev = evaluate_draw(draw, ("reference",), FAULTY)
    assert ev.status == "mismatch"
    path = write_repro(draw, ev, tmp_path)
    doc = json.loads(path.read_text())
    assert "shrunk_from" not in doc
    assert FuzzDraw.from_doc(doc["draw"]) == draw


# ---------------------------------------------------------------------------
# golden --check mode (satellite: fixture verification without rewriting)


def test_golden_check_mode(tmp_path, monkeypatch):
    import tests.golden as golden

    doc = {"nprocs": 2, "scale": "smoke", "runs": {"A/B": {"total_time": 1.0}}}
    monkeypatch.setattr(
        golden, "build_fixture", lambda nprocs=16: json.loads(json.dumps(doc))
    )
    fixture = tmp_path / "golden.json"
    fixture.write_text(json.dumps(doc))
    before = fixture.read_text()
    assert golden.main(["--check", "--fixture", str(fixture)]) == 0
    assert fixture.read_text() == before  # --check never rewrites

    stale = {"nprocs": 2, "scale": "smoke", "runs": {"A/B": {"total_time": 2.0}}}
    fixture.write_text(json.dumps(stale))
    assert golden.main(["--check", "--fixture", str(fixture)]) == 1
    assert json.loads(fixture.read_text()) == stale

    assert golden.main(["--check", "--fixture", str(tmp_path / "missing.json")]) == 1


# ---------------------------------------------------------------------------
# CLI


def test_cli_fuzz_smoke(tmp_path):
    from repro.__main__ import main

    out = tmp_path / "report.json"
    rc = main([
        "fuzz", "--budget", "30", "--seed", "3", "--max-draws", "2",
        "--ledger", str(tmp_path / "corpus.jsonl"),
        "--repro-dir", str(tmp_path / "repros"),
        "--out", str(out), "--no-cache",
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["clean"] and report["evaluated"] == 2
    assert len(load_corpus(tmp_path / "corpus.jsonl")) == 2


def test_cli_fuzz_replay(tmp_path):
    from repro.__main__ import main

    # A repro file recorded against a clean draw: replay must report that
    # the mismatch no longer reproduces and exit 0.
    draw = _draw()
    ev = evaluate_draw(draw, ("reference",), FAULTY)
    path = write_repro(draw, ev, tmp_path)
    assert main(["fuzz", "--replay", str(path)]) == 0


@pytest.mark.parametrize("flag", ["--budget", "--seed", "--oracle", "--replay"])
def test_cli_fuzz_flags_exist(flag, capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit):
        main(["fuzz", "--help"])
    assert flag in capsys.readouterr().out


def test_run_fuzz_progress_counts_events_across_the_session(tmp_path, capsys):
    """Each draw is its own run_jobs batch; its progress line shows the
    events its oracles simulated, numbered across the session."""
    from repro.obs import telemetry

    with telemetry.session(render=True) as sess:
        report = run_fuzz(
            seed=0, max_draws=3, jobs=1, ledger=tmp_path / "corpus.jsonl",
            repro_dir=tmp_path / "repros", resume=False,
        )
    assert report.evaluated == 3
    lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("[")]
    assert [line.split()[0] for line in lines] == ["[1/1]", "[2/2]", "[3/3]"]
    assert not any(": 0 ev" in line for line in lines)
    finishes = [r for r in sess.records if r["event"] == "finish"]
    assert [r["job"] for r in finishes] == [0, 1, 2]
    assert all(r["events"] > 0 for r in finishes)
