"""Topologies and routing."""

import pytest

from repro.network.topology import Hypercube, Mesh2D, Ring, Torus2D, make_topology
from tests.oracles import hops


class TestMesh2D:
    def test_coords_roundtrip(self):
        m = Mesh2D(4, 4)
        for node in range(16):
            r, c = m.coords(node)
            assert m.node_at(r, c) == node

    def test_self_route_empty(self):
        m = Mesh2D(4, 4)
        assert m.route(3, 3) == ()

    def test_neighbour_route(self):
        m = Mesh2D(2, 2)
        assert m.route(0, 1) == ((0, 1),)

    def test_dimension_order_x_then_y(self):
        m = Mesh2D(4, 4)
        # node 0 = (0,0), node 5 = (1,1): X first -> 1, then Y -> 5
        assert m.route(0, 5) == ((0, 1), (1, 5))

    def test_hops_manhattan(self):
        m = Mesh2D(4, 4)
        for s in range(16):
            for d in range(16):
                r0, c0 = m.coords(s)
                r1, c1 = m.coords(d)
                assert hops(m, s, d) == abs(r0 - r1) + abs(c0 - c1)

    def test_route_links_are_adjacent(self):
        m = Mesh2D(3, 5)
        for s in range(15):
            for d in range(15):
                route = m.route(s, d)
                cur = s
                for a, b in route:
                    assert a == cur
                    assert hops(m, a, b) == 1
                    cur = b
                if route:
                    assert cur == d

    def test_links_count(self):
        # 2D mesh rows x cols has 2*(rows*(cols-1) + cols*(rows-1)) directed links
        m = Mesh2D(3, 3)
        assert len(m.links()) == 2 * (3 * 2 + 3 * 2)

    def test_out_of_range(self):
        m = Mesh2D(2, 2)
        with pytest.raises(ValueError):
            m.route(0, 4)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            Mesh2D(0, 3)


class TestTorus2D:
    def test_wraps_shorter_way(self):
        t = Torus2D(1, 5)
        # 0 -> 4 is one hop backwards around the ring
        assert t.route(0, 4) == ((0, 4),)

    def test_forward_when_shorter(self):
        t = Torus2D(1, 5)
        assert t.route(0, 2) == ((0, 1), (1, 2))

    def test_hops_never_exceed_half(self):
        t = Torus2D(4, 4)
        for s in range(16):
            for d in range(16):
                assert hops(t, s, d) <= 4  # 2 + 2


class TestRing:
    def test_shorter_direction(self):
        r = Ring(6)
        assert r.route(0, 5) == ((0, 5),)
        assert hops(r, 0, 3) == 3

    def test_route_validity(self):
        r = Ring(7)
        for s in range(7):
            for d in range(7):
                route = r.route(s, d)
                assert len(route) <= 3  # floor(7/2)
                cur = s
                for a, b in route:
                    assert a == cur
                    cur = b
                if s != d:
                    assert cur == d


class TestHypercube:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            Hypercube(6)

    def test_hops_is_hamming_distance(self):
        h = Hypercube(8)
        for s in range(8):
            for d in range(8):
                assert hops(h, s, d) == bin(s ^ d).count("1")

    def test_route_flips_one_bit_per_hop(self):
        h = Hypercube(16)
        for a, b in h.route(0, 15):
            assert bin(a ^ b).count("1") == 1


class TestFactory:
    def test_make_mesh(self):
        t = make_topology("mesh", 12, (3, 4))
        assert isinstance(t, Mesh2D)

    def test_make_torus(self):
        assert isinstance(make_topology("torus", 4, (2, 2)), Torus2D)

    def test_make_ring(self):
        assert isinstance(make_topology("ring", 5), Ring)

    def test_make_hypercube(self):
        assert isinstance(make_topology("hypercube", 8), Hypercube)

    def test_mesh_requires_dims(self):
        with pytest.raises(ValueError):
            make_topology("mesh", 16)

    def test_mesh_dims_must_match(self):
        with pytest.raises(ValueError):
            make_topology("mesh", 16, (3, 4))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_topology("butterfly", 16)
