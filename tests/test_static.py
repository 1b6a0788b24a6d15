"""Static analysis subsystem: lockset pass, determinism lint, baseline.

The differential test at the bottom is the load-bearing one: every race
the *dynamic* detector finds on RacyDemo must also be flagged
*statically*, so the static pass is a sound gate for the deliberately
racy oracle.
"""

import json
import textwrap

import pytest

from repro.__main__ import main
from repro.analysis.checkers import execute_check
from repro.analysis.naming import sync_label
from repro.analysis.static import (
    analyze_app_module,
    lint_file,
    load_baseline,
    repo_root,
    run_lint,
    write_baseline,
)
from repro.analysis.static.model import (
    Finding,
    LintReport,
    SuppressionIndex,
    scan_pragmas,
)
from repro.apps.factory import AppFactory
from repro.config import MachineConfig
from repro.core.parallel import JobSpec
from repro.runtime.context import Machine


def analyze_snippet(tmp_path, source):
    """Write a synthetic app module and run Pass 1 over it."""
    path = tmp_path / "snippet.py"
    path.write_text(textwrap.dedent(source))
    return analyze_app_module(path, "snippet.py")


class TestLocksetPass:
    def test_locked_accesses_are_clean(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            """
            class App:
                def setup(self, machine):
                    self.data = machine.shm.array(8, "data")
                    self.lock = Lock(machine.sync)

                def worker(self, ctx):
                    yield from self.lock.acquire()
                    v = yield from self.data.read(0)
                    yield from self.data.write(0, v + 1)
                    yield from self.lock.release()
            """,
        )
        assert report.classes == ["App"]
        assert report.findings == []
        assert "data" in {d.label for d in report.decls.values()}

    def test_unlocked_write_write_races(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            """
            class App:
                def setup(self, machine):
                    self.data = machine.shm.array(8, "data")

                def worker(self, ctx):
                    yield from self.data.write(0, ctx.pid)
            """,
        )
        assert report.race_labels == {"data"}
        assert any(f.rule == "lockset-race" for f in report.findings)
        # Attribution: file, line, and the shared label all surface.
        f = report.findings[0]
        assert f.path == "snippet.py"
        assert f.line > 0
        assert "data" in f.message

    def test_barrier_separates_intervals(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            """
            class App:
                def setup(self, machine):
                    self.data = machine.shm.array(8, "data")
                    self.bar = Barrier(machine.sync)

                def worker(self, ctx):
                    yield from self.data.write(0, 1)
                    yield from self.bar.wait()
                    v = yield from self.data.read(0)
            """,
        )
        # Write and read are in different barrier intervals -> only the
        # same-interval write/write self-pair could fire, and a single
        # unconditional write to the same site races with itself.
        labels = {f.detail for f in report.findings}
        assert not any("r@worker" in d for d in labels)

    def test_exclusive_guard_suppresses_self_race(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            """
            class App:
                def setup(self, machine):
                    self.data = machine.shm.array(8, "data")

                def worker(self, ctx):
                    if ctx.pid == 0:
                        yield from self.data.write(0, 1)
            """,
        )
        assert report.findings == []

    def test_owner_disjoint_indices_do_not_race(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            """
            class App:
                def setup(self, machine):
                    self.data = machine.shm.array(8, "data")

                def worker(self, ctx):
                    yield from self.data.write(ctx.pid, 1)
            """,
        )
        # Same canonical owner form ("pid") on both sides: disjoint per
        # processor, so no conflict.
        assert report.findings == []

    def test_cross_owner_forms_race(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            """
            class App:
                def setup(self, machine):
                    self.data = machine.shm.array(8, "data")

                def worker(self, ctx):
                    yield from self.data.write(ctx.pid, 1)
                    v = yield from self.data.read(1 - ctx.pid)
            """,
        )
        assert report.race_labels == {"data"}

    def test_relaxed_read_keeps_write_write(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            """
            class App:
                def setup(self, machine):
                    self.data = machine.shm.array(8, "data", relaxed="read")

                def worker(self, ctx):
                    v = yield from self.data.read(0)
                    yield from self.data.write(0, v)
            """,
        )
        # read/write pairs suppressed, write/write still reported.
        kinds = {f.detail for f in report.findings}
        assert any("w@worker vs w@worker" in d for d in kinds)
        assert not any("r@worker" in d for d in kinds)
        assert report.suppressed  # the read/write pair went somewhere

    def test_relaxed_all_suppresses_everything(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            """
            class App:
                def setup(self, machine):
                    self.data = machine.shm.array(8, "data", relaxed="all")

                def worker(self, ctx):
                    v = yield from self.data.read(0)
                    yield from self.data.write(0, v)
            """,
        )
        assert report.findings == []
        assert report.suppressed

    def test_unused_relaxed_label_is_reported(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            """
            class App:
                def setup(self, machine):
                    self.data = machine.shm.array(8, "data", relaxed="read")
                    self.lock = Lock(machine.sync)

                def worker(self, ctx):
                    yield from self.lock.acquire()
                    yield from self.data.write(0, 1)
                    yield from self.lock.release()
            """,
        )
        assert report.findings == []
        assert any(f.rule == "unused-suppression" for f in report.unused)

    def test_helper_inlining_carries_lockset(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            """
            class App:
                def setup(self, machine):
                    self.data = machine.shm.array(8, "data")
                    self.lock = Lock(machine.sync)

                def _bump(self):
                    v = yield from self.data.read(0)
                    yield from self.data.write(0, v + 1)

                def worker(self, ctx):
                    yield from self.lock.acquire()
                    yield from self._bump()
                    yield from self.lock.release()
            """,
        )
        assert report.findings == []
        # The inlined accesses carry the caller's lockset...
        data_sites = [s for s in report.sites if s.array == "data"]
        assert data_sites and all("lock" in s.lockset for s in data_sites)
        # ...and are attributed to the helper in the per-function summary.
        helper = report.summaries["App._bump"]
        assert helper.reads == 1 and helper.writes == 1
        assert report.summaries["App.worker"].acquires == 1

    def test_function_summaries_count_sync_ops(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            """
            class App:
                def setup(self, machine):
                    self.data = machine.shm.array(8, "data")
                    self.lock = Lock(machine.sync)
                    self.bar = Barrier(machine.sync)

                def worker(self, ctx):
                    yield from self.lock.acquire()
                    yield from self.data.write(0, 1)
                    yield from self.lock.release()
                    yield from self.bar.wait()
            """,
        )
        s = report.summaries["App.worker"]
        assert s.acquires == 1
        assert s.releases == 1
        assert s.barrier_waits == 1


class TestDeterminismPass:
    def lint_snippet(self, tmp_path, source, name="mod.py"):
        path = tmp_path / name
        path.write_text(textwrap.dedent(source))
        return lint_file(path, name)

    def test_clean_module(self, tmp_path):
        findings = self.lint_snippet(
            tmp_path,
            """
            import random

            def pick(seq, seed):
                rng = random.Random(seed)
                return rng.choice(sorted(seq))
            """,
        )
        assert findings == []

    def test_wall_clock_flagged(self, tmp_path):
        findings = self.lint_snippet(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        assert [f.rule for f in findings] == ["wall-clock"]

    def test_unseeded_random_flagged(self, tmp_path):
        findings = self.lint_snippet(
            tmp_path,
            """
            import random

            def pick(seq):
                return random.choice(seq)
            """,
        )
        assert [f.rule for f in findings] == ["unseeded-random"]

    def test_set_iteration_flagged(self, tmp_path):
        findings = self.lint_snippet(
            tmp_path,
            """
            def walk(items):
                pending = {1, 2, 3}
                for x in pending:
                    items.append(x)
            """,
        )
        assert [f.rule for f in findings] == ["set-iteration"]

    def test_sorted_set_iteration_is_clean(self, tmp_path):
        findings = self.lint_snippet(
            tmp_path,
            """
            def walk(items):
                pending = {1, 2, 3}
                for x in sorted(pending):
                    items.append(x)
            """,
        )
        assert findings == []

    def test_nonfrozen_config_flagged(self, tmp_path):
        findings = self.lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass
            class CacheConfig:
                lines: int = 64
            """,
        )
        assert [f.rule for f in findings] == ["nonfrozen-config"]

    def test_frozen_config_is_clean(self, tmp_path):
        findings = self.lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class CacheConfig:
                lines: int = 64
            """,
        )
        assert findings == []

    def test_hot_class_without_slots_flagged(self, tmp_path):
        findings = self.lint_snippet(
            tmp_path,
            """
            class Line:  # lint: hot
                def __init__(self):
                    self.tag = 0
            """,
        )
        assert [f.rule for f in findings] == ["hot-slots"]

    def test_hot_class_with_slots_is_clean(self, tmp_path):
        findings = self.lint_snippet(
            tmp_path,
            """
            class Line:  # lint: hot
                __slots__ = ("tag",)

                def __init__(self):
                    self.tag = 0
            """,
        )
        assert findings == []

    def test_fastpath_alloc_flagged(self, tmp_path):
        findings = self.lint_snippet(
            tmp_path,
            """
            def drain(heap):
                while heap:  # lint: fastpath
                    try:
                        heap.pop()
                    except IndexError:
                        break
            """,
        )
        assert [f.rule for f in findings] == ["fastpath-alloc"]

    def test_fastpath_clean_loop(self, tmp_path):
        findings = self.lint_snippet(
            tmp_path,
            """
            def drain(heap):
                while heap:  # lint: fastpath
                    heap.pop()
            """,
        )
        assert findings == []


class TestBaselineAndPragmas:
    def make_report(self):
        report = LintReport()
        report.findings.append(
            Finding(rule="lockset-race", path="a.py", line=3, message="boom")
        )
        report.findings.append(
            Finding(rule="wall-clock", path="b.py", line=9, message="tick")
        )
        report.files_scanned = 2
        return report

    def test_baseline_round_trip(self, tmp_path):
        report = self.make_report()
        path = write_baseline(tmp_path / "base.json", report)
        baseline = load_baseline(path)
        assert set(baseline) == {f.key() for f in report.findings}
        assert report.new_against(set(baseline)) == []

    def test_new_findings_survive_baseline(self, tmp_path):
        report = self.make_report()
        path = write_baseline(tmp_path / "base.json", report)
        baseline = load_baseline(path)
        report.findings.append(
            Finding(rule="lockset-race", path="c.py", line=1, message="new")
        )
        new = report.new_against(set(baseline))
        assert [f.path for f in new] == ["c.py"]

    def test_stale_baseline_entries_detected(self, tmp_path):
        report = self.make_report()
        path = write_baseline(tmp_path / "base.json", report)
        baseline = load_baseline(path)
        fixed = LintReport()
        fixed.findings.append(report.findings[0])
        stale = fixed.stale_baseline(set(baseline))
        assert stale == [report.findings[1].key()]

    def test_baseline_keys_are_line_independent(self):
        a = Finding(rule="r", path="p.py", line=3, message="m", detail="d")
        b = Finding(rule="r", path="p.py", line=99, message="m", detail="d")
        assert a.key() == b.key()

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps({"schema": 999, "findings": []}))
        with pytest.raises(ValueError):
            load_baseline(path)

    def test_pragma_scan_and_match(self):
        src = "x = 1  # lint: ok[wall-clock]\n# lint: ok-module[set-iteration]\n"
        pragmas = scan_pragmas("m.py", src)
        assert {(p.rule, p.module_wide) for p in pragmas} == {
            ("wall-clock", False),
            ("set-iteration", True),
        }
        index = SuppressionIndex()
        index.add_file("m.py", src)
        same_line = Finding(rule="wall-clock", path="m.py", line=1, message="x")
        anywhere = Finding(rule="set-iteration", path="m.py", line=40, message="y")
        other = Finding(rule="wall-clock", path="m.py", line=40, message="z")
        assert index.matches(same_line)
        assert index.matches(anywhere)
        assert not index.matches(other)
        assert index.unused() == []

    def test_unused_pragma_reported(self):
        index = SuppressionIndex()
        index.add_file("m.py", "x = 1  # lint: ok[wall-clock]\n")
        assert [p.rule for p in index.unused()] == ["wall-clock"]


class TestSyncNaming:
    def test_sync_label_format(self):
        assert sync_label("lock", "racy.lock", 0) == "lock:racy.lock#0"
        assert sync_label("lock", "", 3) == "lock:#3"
        assert sync_label("flag_set") == "flag"

    def test_manager_names_round_trip(self):
        machine = Machine(MachineConfig(nprocs=2), "RCinv")
        sync = machine.sync
        lid = sync.new_lock("mf.count_lock")
        bid = sync.new_barrier(2, name="phase")
        anon = sync.new_lock()  # anonymous: not in sync_names()
        names = sync.sync_names()
        assert names[("lock", lid)] == "mf.count_lock"
        assert names[("barrier", bid)] == "phase"
        assert ("lock", anon) not in names
        # The shared pretty-printer renders the dynamic name the same way
        # the static pass labels the declaration.
        assert sync_label("lock", names[("lock", lid)], lid) == f"lock:mf.count_lock#{lid}"


class TestRepoLint:
    def test_repo_is_clean_against_baseline(self):
        root = repo_root()
        report, app_reports = run_lint(root=root)
        baseline = load_baseline(root / "lint_baseline.json")
        assert report.new_against(set(baseline)) == []
        assert report.stale_baseline(set(baseline)) == []
        assert report.unused_suppressions == []
        assert report.files_scanned >= 30
        # Every analysed app produced per-function summaries.
        assert app_reports
        for app in app_reports:
            assert app.summaries

    def test_core_has_no_unsuppressed_determinism_findings(self):
        report, _ = run_lint(apps=False, core=True)
        assert report.findings == []

    def test_cli_lint_clean_exit(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 new finding(s)" in out

    def test_cli_lint_json_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["lint", "--report", str(out_path), "--format", "json"]) == 0
        capsys.readouterr()
        doc = json.loads(out_path.read_text())
        assert doc["new"] == []
        assert any(path.endswith("racy.py") for path in doc["apps"])
        racy = doc["apps"]["src/repro/apps/racy.py"]
        assert racy["race_labels"] == ["racy.data"]


class TestRacyDifferential:
    """Dynamic races on RacyDemo must be a subset of the static report."""

    def test_every_dynamic_race_is_statically_flagged(self):
        root = repo_root()
        static = analyze_app_module(
            root / "src" / "repro" / "apps" / "racy.py", "src/repro/apps/racy.py"
        )
        assert static.race_labels  # the oracle must be flagged at all

        spec = JobSpec(
            factory=AppFactory("RacyDemo", rounds=2),
            system="RCinv",
            config=MachineConfig(nprocs=2),
            verify=False,
        )
        outcome = execute_check(spec)
        assert not outcome.races.clean  # the dynamic oracle still fires
        dynamic_labels = {race.array for race in outcome.races.races}
        assert dynamic_labels  # sanity: attribution worked
        assert dynamic_labels <= static.race_labels
