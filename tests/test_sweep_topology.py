"""The sweep API and configurable topologies."""

import pytest

from repro.config import MachineConfig
from repro.core.sweep import sweep
from repro.apps import IntegerSort
from repro.apps.base import run_on
from repro.mem.systems import default_network
from repro.network.topology import Hypercube, Mesh2D, Ring, Torus2D


def small_is():
    return IntegerSort(n_keys=128, nbuckets=8)


CFG = MachineConfig(nprocs=4)


class TestSweep:
    def test_series_ordered_by_values(self):
        res = sweep(small_is, "cycles_per_byte", [0.8, 1.6, 3.2], base_config=CFG)
        assert res.values() == [0.8, 1.6, 3.2]
        assert res.parameter == "cycles_per_byte"
        assert len(res.points) == 3

    def test_total_time_grows_with_link_slowness(self):
        res = sweep(small_is, "cycles_per_byte", [0.8, 1.6, 3.2], base_config=CFG)
        times = [t for _, t in res.series("total_time")]
        assert all(a <= b * 1.02 for a, b in zip(times, times[1:]))

    def test_series_metric_access(self):
        res = sweep(small_is, "store_buffer_entries", [1, 4], base_config=CFG, system="RCupd")
        pairs = res.series("mean_write_stall")
        assert [v for v, _ in pairs] == [1, 4]
        assert pairs[0][1] >= pairs[1][1]

    def test_format_contains_rows(self):
        res = sweep(small_is, "nprocs", [2, 4])
        text = res.format()
        assert "sweep of nprocs" in text
        assert "2" in text and "4" in text

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            sweep(small_is, "flux_capacitor", [1])

    def test_result_names_its_system(self):
        res = sweep(small_is, "nprocs", [2], system="RCupd")
        assert res.system == "RCupd"

    def test_point_conveniences(self):
        res = sweep(small_is, "nprocs", [2])
        p = res.points[0]
        assert p.total_time == p.result.total_time
        assert p.overhead_pct == p.result.overhead_pct


class TestTopologyConfig:
    @pytest.mark.parametrize(
        "topo,cls",
        [("mesh", Mesh2D), ("torus", Torus2D), ("ring", Ring), ("hypercube", Hypercube)],
    )
    def test_network_built_for_topology(self, topo, cls):
        net = default_network(MachineConfig(nprocs=4, topology=topo))
        assert isinstance(net.topology, cls)

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(topology="butterfly")

    def test_hypercube_needs_power_of_two(self):
        with pytest.raises(ValueError):
            MachineConfig(nprocs=6, topology="hypercube")
        MachineConfig(nprocs=8, topology="hypercube")  # fine

    @pytest.mark.parametrize("topo", ["mesh", "torus", "ring", "hypercube"])
    def test_apps_correct_on_every_topology(self, topo):
        cfg = MachineConfig(nprocs=4, topology=topo)
        run_on(small_is(), "RCinv", cfg)  # verifies internally

    def test_zmachine_ignores_topology(self):
        cfg = MachineConfig(nprocs=4, topology="ring")
        run_on(small_is(), "z-mc", cfg)
