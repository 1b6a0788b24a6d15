"""Input presets: structure and paper-size parameters."""

import pytest

from repro.apps import (
    SCALES,
    AppFactory,
    default_scale,
    large_scale,
    paper_scale,
    preset,
    resolve_apps,
    smoke_scale,
)
from repro.apps.base import run_on
from repro.config import MachineConfig


class TestPresetStructure:
    @pytest.mark.parametrize(
        "preset", [paper_scale, default_scale, large_scale, smoke_scale]
    )
    def test_all_four_apps(self, preset):
        p = preset()
        assert set(p) == {"Cholesky", "IS", "Maxflow", "Nbody"}
        for name, (factory, reuse) in p.items():
            assert callable(factory)
            assert isinstance(reuse, bool)

    def test_reuse_flags_match_paper(self):
        p = paper_scale()
        assert p["Cholesky"][1] is False
        assert p["IS"][1] is False
        assert p["Maxflow"][1] is True
        assert p["Nbody"][1] is True


class TestPaperSizes:
    def test_cholesky_matrix_size(self):
        app = paper_scale()["Cholesky"][0]()
        assert app.n == 33 * 33  # 1089, the paper's 1086-column analogue

    def test_is_keys_and_buckets(self):
        app = paper_scale()["IS"][0]()
        assert app.n == 32768
        assert app.nbuckets == 1024

    def test_maxflow_graph(self):
        app = paper_scale()["Maxflow"][0]()
        assert app.net.n == 200
        # 400 bidirectional edges + backbone, each contributing 2 arcs
        assert app.net.num_arcs >= 2 * 400

    def test_nbody_parameters(self):
        app = paper_scale()["Nbody"][0]()
        assert app.n == 128
        assert app.steps == 50
        assert app.boost_interval == 10


class TestLargeScale:
    def test_large_in_scales_and_lookup(self):
        assert "large" in SCALES
        assert set(preset("large")) == {"Cholesky", "IS", "Maxflow", "Nbody"}

    def test_large_grows_default_by_an_order_of_magnitude(self):
        """'large' must carry roughly 10x the default problem sizes so
        P=64/256 machines have enough parallel slack per processor."""
        large, small = large_scale(), default_scale()
        l_is, s_is = large["IS"][0](), small["IS"][0]()
        assert l_is.n == 10 * s_is.n
        l_ch, s_ch = large["Cholesky"][0](), small["Cholesky"][0]()
        assert l_ch.n == 4 * s_ch.n  # factor work grows superlinearly
        l_mf, s_mf = large["Maxflow"][0](), small["Maxflow"][0]()
        assert l_mf.net.n > 3 * s_mf.net.n
        l_nb, s_nb = large["Nbody"][0](), small["Nbody"][0]()
        assert l_nb.n == 4 * s_nb.n  # force phase is O(n log n) per step

    def test_large_workloads_feed_64_processors(self):
        """Every large workload decomposes into at least P=64 units of
        parallel work (keys, columns, vertices, bodies)."""
        large = large_scale()
        assert large["IS"][0]().n >= 64 * 8
        assert large["Cholesky"][0]().n >= 64
        assert large["Maxflow"][0]().net.n >= 64
        assert large["Nbody"][0]().n >= 64 * 4


class TestResolveApps:
    @pytest.mark.parametrize("scale", SCALES)
    def test_all_is_the_scales_preset(self, scale):
        assert resolve_apps("all", scale) == preset(scale)

    @pytest.mark.parametrize("name", ["IS", "is", "intsort", "INTSORT"])
    def test_names_aliases_and_case_resolve_to_the_preset_cell(self, name):
        assert resolve_apps(name, "smoke") == {"IS": smoke_scale()["IS"]}

    def test_app_without_a_preset_runs_its_defaults_without_reuse(self):
        expected = {"RacyDemo": (AppFactory("RacyDemo"), False)}
        assert resolve_apps("racy", "paper") == expected
        assert resolve_apps("RacyDemo") == expected

    def test_unknown_name_lists_the_choices(self):
        with pytest.raises(ValueError, match=r"unknown application 'LINPACK'; choose from all, "
                           r"Cholesky, IS, Maxflow, Nbody, RacyDemo"):
            resolve_apps("LINPACK")


class TestSmokeRuns:
    @pytest.mark.parametrize("name", ["Cholesky", "IS", "Maxflow", "Nbody"])
    def test_smoke_preset_runs_and_verifies(self, name):
        factory, _ = smoke_scale()[name]
        run_on(factory(), "RCinv", MachineConfig(nprocs=4))

    def test_factories_are_fresh_instances(self):
        factory, _ = smoke_scale()["IS"]
        assert factory() is not factory()
