"""Study harness, Table 1, Figure 1 scenario, rendering and claims."""

import pytest

from repro import MachineConfig, figure1_scenario, run_study, table1, table1_rows
from repro.analysis import (
    format_claims,
    format_comparison,
    format_figure,
    format_table1,
    standard_claims,
)
from repro.analysis.claims import check_zmachine_near_zero
from repro.apps import IntegerSort

CFG = MachineConfig(nprocs=4)


def small_is():
    return IntegerSort(n_keys=256, nbuckets=16)


@pytest.fixture(scope="module")
def study():
    return run_study(small_is, MachineConfig(nprocs=4))


class TestRunStudy:
    def test_default_systems(self, study):
        assert [s.system for s in study.systems] == [
            "z-mc", "RCinv", "RCupd", "RCadapt", "RCcomp",
        ]

    def test_by_system(self, study):
        assert study.by_system("RCinv").system == "RCinv"
        with pytest.raises(KeyError):
            study.by_system("nope")

    def test_zmachine_property(self, study):
        assert study.zmachine.system == "z-mc"

    def test_overhead_decomposition_sums(self, study):
        for s in study.systems:
            assert s.overhead == pytest.approx(
                s.read_stall + s.write_stall + s.buffer_flush
            )
            assert 0 <= s.overhead_pct <= 100

    def test_zmachine_fastest(self, study):
        z = study.zmachine.total_time
        for s in study.systems:
            assert s.total_time >= z

    def test_traffic_attached(self, study):
        assert study.by_system("RCinv").traffic["messages"] > 0

    def test_subset_of_systems(self):
        st = run_study(small_is, CFG, systems=("z-mc", "RCinv"))
        assert len(st.systems) == 2

    def test_custom_app_name(self, study):
        assert study.app_name == "IS"


def zmc_row(factory=small_is, cfg=CFG):
    """The Table 1 row of a one-system (z-mc) study."""
    (row,) = table1_rows([run_study(factory, cfg, systems=("z-mc",))])
    return row


class TestTable1:
    def test_row_fields(self):
        row = zmc_row()
        assert row.app == "IS"
        assert row.shared_writes > 0
        assert row.total_time > 0
        assert 0 <= row.write_pct < 100
        assert row.observed_cost >= 0.0
        assert row.network_cycles == pytest.approx(row.shared_writes * 6.4)

    def test_observed_cost_is_tiny(self):
        row = zmc_row()
        assert row.observed_cost / row.total_time < 0.01

    def test_table_of_multiple_apps(self):
        rows, manifest = table1({"IS": small_is}, CFG)
        assert len(rows) == 1
        assert manifest["kind"] == "table1"

    def test_table1_matches_rows_from_a_study(self, study):
        (row,), _ = table1({"IS": small_is}, CFG)
        assert table1_rows([study]) == [row]


class TestFigure1:
    def test_zmachine_classification(self):
        t = figure1_scenario("z-mc", CFG)
        assert t.early_kind == "inherent"
        assert t.late_kind == "hidden"
        assert t.early_read.stall <= t.link_latency

    @pytest.mark.parametrize("system", ["RCinv", "RCupd", "SCinv"])
    def test_real_systems_show_overhead(self, system):
        t = figure1_scenario(system, CFG)
        assert t.late_kind == "overhead"
        assert t.late_read.stall > 0

    def test_needs_three_procs(self):
        with pytest.raises(ValueError):
            figure1_scenario("z-mc", MachineConfig(nprocs=2))


class TestRendering:
    def test_figure_contains_all_systems(self, study):
        text = format_figure(study)
        for name in ("z-mc", "RCinv", "RCupd", "RCadapt", "RCcomp"):
            assert name in text
        assert "ovh%" in text

    def test_figure_custom_title(self, study):
        assert format_figure(study, "My Title").startswith("My Title")

    def test_table1_render(self):
        text = format_table1([zmc_row()])
        assert "IS" in text
        assert "Observed" in text

    def test_comparison_line(self, study):
        line = format_comparison(study)
        assert "IS" in line and "RCinv" in line


class TestClaims:
    def test_standard_claims_structure(self, study):
        checks = standard_claims(study, expect_reuse=False)
        assert len(checks) == 5
        text = format_claims(checks)
        assert "PASS" in text or "FAIL" in text

    def test_zmachine_claim_passes(self, study):
        assert check_zmachine_near_zero(study).holds

    def test_zmachine_claim_tolerance(self, study):
        strict = check_zmachine_near_zero(study, tol_pct=0.0)
        loose = check_zmachine_near_zero(study, tol_pct=100.0)
        assert loose.holds
        assert strict.holds == (study.zmachine.overhead_pct <= 0.0)
