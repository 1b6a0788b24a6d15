"""CLI entry point and machine-readable exports."""

import contextlib
import csv
import io
import json

import pytest

from repro import MachineConfig, run_study, table1
from repro.__main__ import build_parser, main
from repro.analysis.report import (
    STUDY_FIELDS,
    studies_to_csv,
    studies_to_json,
    study_rows,
    table1_to_csv,
)
from repro.apps import IntegerSort


@pytest.fixture(scope="module")
def study():
    return run_study(
        lambda: IntegerSort(n_keys=256, nbuckets=16), MachineConfig(nprocs=4)
    )


class TestReportExports:
    def test_study_rows_fields(self, study):
        rows = study_rows(study)
        assert len(rows) == 5
        for row in rows:
            assert set(row) == set(STUDY_FIELDS)
            assert row["app"] == "IS"

    def test_csv_round_trip(self, study):
        text = studies_to_csv([study])
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == 5
        assert parsed[0]["system"] == "z-mc"
        assert float(parsed[0]["overhead_pct"]) < 1.0

    def test_json_round_trip(self, study):
        doc = json.loads(studies_to_json([study]))
        assert len(doc) == 1
        assert doc[0]["app"] == "IS"
        assert doc[0]["config"]["nprocs"] == 4
        assert len(doc[0]["systems"]) == 5

    def test_table1_csv(self):
        rows, _ = table1(
            {"IS": lambda: IntegerSort(n_keys=256, nbuckets=16)}, MachineConfig(nprocs=4)
        )
        text = table1_to_csv(rows)
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert parsed[0]["app"] == "IS"
        assert int(parsed[0]["shared_writes"]) > 0


class TestCLI:
    def test_systems_command(self, capsys):
        assert main(["systems"]) == 0
        out = capsys.readouterr().out
        assert "RCinv" in out and "Cholesky" in out

    def test_study_text(self, capsys):
        rc = main(["--nprocs", "4", "study", "--app", "IS", "--systems", "z-mc", "RCinv"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "RCinv" in out and "ovh%" in out

    def test_study_json(self, capsys):
        rc = main([
            "--nprocs", "4", "study", "--app", "IS",
            "--systems", "z-mc", "--format", "json",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc[0]["systems"][0]["system"] == "z-mc"

    def test_study_unknown_app(self):
        with pytest.raises(SystemExit):
            main(["study", "--app", "LINPACK"])

    def test_study_unknown_system(self):
        with pytest.raises(SystemExit):
            main(["study", "--app", "IS", "--systems", "MESI"])

    def test_fig1(self, capsys):
        assert main(["--nprocs", "4", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "inherent" in out and "overhead" in out

    def test_table1_csv_format(self, capsys):
        rc = main(["--nprocs", "4", "table1", "--app", "IS", "--format", "csv"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("app,")

    def test_claims_exit_code(self, capsys):
        rc = main(["--nprocs", "4", "claims", "--app", "IS"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "intsort", "bogus"],
            ["profile", "intsort", "bogus"],
            ["attribute", "intsort", "bogus"],
            ["study", "--app", "IS", "--systems", "z-mc", "bogus"],
            ["check", "--systems", "bogus"],
            ["scenario", "run", "--systems", "bogus"],
        ],
        ids=lambda argv: argv[0] if argv[0] != "scenario" else "scenario run",
    )
    def test_unknown_system_lists_the_choices(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value) == (
            "unknown memory system 'bogus'; choose from "
            "RCadapt, RCcomp, RCinv, RCupd, SCinv, z-mc"
        )

    def test_unknown_app_lists_the_same_choices_on_every_command(self):
        messages = set()
        for argv in (
            ["study", "--app", "bogus"],
            ["table1", "--app", "bogus"],
            ["claims", "--app", "bogus"],
            ["check", "--app", "bogus"],
            ["scenario", "run", "--app", "bogus"],
            ["trace", "bogus", "RCinv"],
            ["profile", "bogus", "RCinv"],
            ["attribute", "bogus", "RCinv"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            messages.add(str(exc.value))
        [message] = messages
        assert message.startswith("unknown application 'bogus'; choose from all, ")
        for choice in ("Cholesky", "IS", "Maxflow", "Nbody", "RacyDemo", "intsort"):
            assert choice in message

    def test_study_accepts_an_alias_with_identical_output(self, capsys):
        outputs = []
        for app in ("IS", "intsort"):
            argv = ["study", "--app", app, "--scale", "smoke", "--format", "csv", "--no-cache"]
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("\nIS,") == 5

    def test_check_and_attribute_accept_aliases(self, capsys):
        argv = ["--nprocs", "4", "check", "--app", "intsort", "--systems", "z-mc", "--no-cache"]
        assert main(argv) == 0
        assert "OK: 1 run(s)" in capsys.readouterr().out
        assert main(["--nprocs", "4", "attribute", "racy", "RCinv", "--scale", "smoke"]) == 0
        assert "racy.data" in capsys.readouterr().out

    def test_bench_subcommand_is_retired(self):
        with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])
