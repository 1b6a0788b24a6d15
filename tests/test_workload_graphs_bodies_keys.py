"""Flow networks, body sets and key streams."""

import numpy as np
import pytest

from repro.workloads.bodies import direct_forces, two_clusters, uniform_disc
from repro.workloads.graphs import random_flow_network
from repro.workloads.keys import nas_keys, reference_ranks, uniform_keys
from tests.oracles import reference_max_flow


class TestFlowNetwork:
    def test_paper_shape_defaults(self):
        net = random_flow_network()
        assert net.n == 200
        assert net.num_arcs >= 2 * 400

    def test_arc_pairing(self):
        net = random_flow_network(30, 60, seed=2)
        for e in range(net.num_arcs):
            assert net.reverse(net.reverse(e)) == e
            assert net.tail[e] == net.head[net.reverse(e)]

    def test_adjacency_lists_out_arcs(self):
        net = random_flow_network(20, 40, seed=1)
        for v in range(net.n):
            for e in net.adj[v]:
                assert net.tail[int(e)] == v

    def test_backbone_guarantees_positive_flow(self):
        net = random_flow_network(25, 0, seed=5)
        assert reference_max_flow(net) > 0

    def test_deterministic_by_seed(self):
        a = random_flow_network(20, 40, seed=7)
        b = random_flow_network(20, 40, seed=7)
        assert np.array_equal(a.cap, b.cap)
        assert np.array_equal(a.head, b.head)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            random_flow_network(1, 0)

    def test_no_self_loops_or_duplicate_pairs(self):
        net = random_flow_network(15, 30, seed=3)
        seen = set()
        for e in range(0, net.num_arcs, 2):
            u, v = int(net.tail[e]), int(net.head[e])
            assert u != v
            key = (min(u, v), max(u, v))
            assert key not in seen
            seen.add(key)


class TestBodies:
    def test_uniform_disc_inside_radius(self):
        b = uniform_disc(100, radius=2.0, seed=1)
        assert np.all(np.hypot(b.pos[:, 0], b.pos[:, 1]) <= 2.0 + 1e-9)
        assert b.n == 100
        assert np.all(b.mass > 0)

    def test_two_clusters_separated(self):
        b = two_clusters(64, separation=6.0, seed=2)
        left = b.pos[:32, 0]
        right = b.pos[32:, 0]
        assert left.mean() < -2
        assert right.mean() > 2

    def test_direct_forces_antisymmetric_for_two_equal_masses(self):
        import repro.workloads.bodies as wb

        b = wb.BodySet(
            pos=np.array([[0.0, 0.0], [1.0, 0.0]]),
            vel=np.zeros((2, 2)),
            mass=np.array([1.0, 1.0]),
        )
        f = direct_forces(b, eps=0.0)
        assert np.allclose(f[0], -f[1])
        assert f[0][0] > 0  # attraction toward the other body

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            uniform_disc(0)


class TestKeys:
    def test_nas_keys_in_range(self):
        k = nas_keys(1000, 256, seed=1)
        assert k.min() >= 0 and k.max() < 256
        assert len(k) == 1000

    def test_nas_keys_clustered_around_middle(self):
        k = nas_keys(20000, 1024, seed=2)
        # mean of 4 uniforms: strongly concentrated near max_key/2
        assert abs(k.mean() - 512) < 30
        assert k.std() < 512 * 0.4

    def test_uniform_keys_spread(self):
        k = uniform_keys(20000, 1024, seed=2)
        assert k.std() > nas_keys(20000, 1024, seed=2).std()

    def test_deterministic(self):
        assert np.array_equal(nas_keys(100, 64, seed=9), nas_keys(100, 64, seed=9))

    def test_reference_ranks_sort(self):
        k = nas_keys(500, 64, seed=3)
        r = reference_ranks(k)
        assert sorted(r) == list(range(500))
        sorted_keys = np.empty(500, dtype=np.int64)
        sorted_keys[r] = k
        assert np.all(np.diff(sorted_keys) >= 0)

    def test_reference_ranks_stable(self):
        k = np.array([5, 1, 5, 1])
        assert reference_ranks(k).tolist() == [2, 0, 3, 1]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            nas_keys(0, 10)
        with pytest.raises(ValueError):
            uniform_keys(10, 0)
