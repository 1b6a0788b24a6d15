"""Ideal and routed network timing models."""

import random
from dataclasses import astuple

import pytest

from repro.network.base import NetStats
from repro.network.ideal import IdealNetwork
from repro.network.routed import RoutedNetwork
from repro.network.topology import Hypercube, Mesh2D, Ring, Torus2D
from tests.oracles import link_utilisation, min_latency

TOPOLOGIES = {
    "mesh": lambda: Mesh2D(3, 4),
    "torus": lambda: Torus2D(4, 4),
    "ring": lambda: Ring(6),
    "hypercube": lambda: Hypercube(8),
}


class TestIdealNetwork:
    def test_latency_is_bytes_times_speed(self):
        net = IdealNetwork(cycles_per_byte=1.6)
        assert net.latency(4) == pytest.approx(6.4)

    def test_header_and_fixed_cost(self):
        net = IdealNetwork(1.0, header_bytes=8, fixed_cycles=5.0)
        assert net.latency(4) == pytest.approx(5.0 + 12.0)

    def test_transfer_adds_latency(self):
        net = IdealNetwork(2.0)
        assert net.transfer(0, 1, 10, start=100.0) == pytest.approx(120.0)

    def test_local_transfer_free(self):
        net = IdealNetwork(2.0)
        assert net.transfer(3, 3, 10, start=100.0) == pytest.approx(100.0)

    def test_no_contention(self):
        net = IdealNetwork(1.6)
        a = net.transfer(0, 1, 100, 0.0)
        b = net.transfer(0, 1, 100, 0.0)
        assert a == b  # second message sees no queueing

    def test_multicast_simultaneous(self):
        net = IdealNetwork(1.6)
        arrivals = net.multicast(0, [1, 2, 3], 4, 0.0)
        assert len(set(arrivals.values())) == 1  # ideal fan-out: same L

    def test_stats_recorded(self):
        net = IdealNetwork(1.0)
        net.transfer(0, 1, 10, 0.0)
        net.transfer(0, 2, 10, 0.0)
        assert net.stats.messages == 2
        assert net.stats.bytes == 20

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            IdealNetwork(-1.0)

    @pytest.mark.parametrize(
        "net_args", [(1.6,), (1.0, 8, 5.0), (0.3, 3, 0.7)], ids=["zmc", "header", "odd"]
    )
    def test_transfer_pinned_to_latency_and_record(self, net_args):
        """``transfer`` returns ``start + latency(nbytes)`` (``start`` on a
        local send) bit for bit, and leaves the counters that ``latency()``
        followed by the former ``NetStats.record(nbytes, lat, lat, 0.0)``
        left."""
        net = IdealNetwork(*net_args)
        want = NetStats()
        start = 0.1
        for nbytes in (0, 4, 8, 32):
            for src, dst in ((0, 1), (2, 2)):
                lat = 0.0 if src == dst else net.latency(nbytes)
                want.messages += 1
                want.bytes += nbytes
                want.latency_cycles += lat
                want.busy_cycles += lat
                want.contention_cycles += 0.0
                got = net.transfer(src, dst, nbytes, start)
                assert got.hex() == (start if src == dst else start + lat).hex()
                start = got + 0.3
        typed = [(type(v), v) for v in astuple(net.stats)]
        assert typed == [(type(v), v) for v in astuple(want)]


class TestRoutedNetwork:
    def make(self, **kw):
        defaults = dict(cycles_per_byte=1.6, header_bytes=8, router_delay=2.0)
        defaults.update(kw)
        return RoutedNetwork(Mesh2D(2, 2), **defaults)

    def test_zero_load_latency(self):
        net = self.make()
        # 0 -> 1 is one hop: router_delay + (8+8)*1.6
        expect = 2.0 + 16 * 1.6
        assert net.transfer(0, 1, 8, 0.0) == pytest.approx(expect)
        assert min_latency(net, 0, 1, 8) == pytest.approx(expect)

    def test_two_hop_latency(self):
        net = self.make()
        # 0 -> 3: two hops
        expect = 2 * 2.0 + 16 * 1.6
        assert net.transfer(0, 3, 8, 0.0) == pytest.approx(expect)

    def test_local_delivery_free(self):
        net = self.make()
        assert net.transfer(1, 1, 100, 50.0) == pytest.approx(50.0)

    def test_contention_queues_second_message(self):
        net = self.make()
        a = net.transfer(0, 1, 8, 0.0)
        b = net.transfer(0, 1, 8, 0.0)  # same link, same instant
        ser = (8 + 8) * 1.6
        assert b == pytest.approx(a + ser)

    def test_contention_recorded_in_stats(self):
        net = self.make()
        net.transfer(0, 1, 8, 0.0)
        net.transfer(0, 1, 8, 0.0)
        assert net.stats.contention_cycles > 0

    def test_disjoint_routes_no_interference(self):
        net = self.make()
        a = net.transfer(0, 1, 8, 0.0)
        b = net.transfer(2, 3, 8, 0.0)  # disjoint links
        assert a == pytest.approx(b)

    def test_later_message_after_drain_sees_no_queue(self):
        net = self.make()
        net.transfer(0, 1, 8, 0.0)
        late = net.transfer(0, 1, 8, 1000.0)
        assert late == pytest.approx(1000.0 + min_latency(net, 0, 1, 8))

    def test_multicast_serialised_at_source(self):
        net = self.make()
        arrivals = net.multicast(0, [1, 2, 3], 8, 0.0)
        assert len(arrivals) == 3
        assert len(set(arrivals.values())) > 1  # staggered injections

    def test_reset_clears_reservations(self):
        net = self.make()
        net.transfer(0, 1, 8, 0.0)
        net.reset()
        assert net.stats.messages == 0
        assert net.transfer(0, 1, 8, 0.0) == pytest.approx(min_latency(net, 0, 1, 8))

    def test_monotone_in_size(self):
        net = self.make()
        small = min_latency(net, 0, 3, 4)
        large = min_latency(net, 0, 3, 64)
        assert large > small

    def test_invalid_speed(self):
        with pytest.raises(ValueError):
            RoutedNetwork(Mesh2D(2, 2), cycles_per_byte=0.0)

    def test_link_utilisation_diagnostic(self):
        net = self.make()
        net.transfer(0, 1, 8, 0.0)
        assert (0, 1) in link_utilisation(net)


class TestRouteTable:
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_lazy_table_matches_topology_routes(self, name):
        topo = TOPOLOGIES[name]()
        n = topo.nnodes
        net = RoutedNetwork(topo, cycles_per_byte=1.0)
        assert net._route_table == [None] * (n * n)  # nothing built up front
        net.transfer(0, n - 1, 8, 0.0)
        filled = [i for i, r in enumerate(net._route_table) if r is not None]
        assert filled == [n - 1]
        for src in range(n):
            for dst in range(n):
                if src != dst:
                    net.transfer(src, dst, 8, 0.0)
        link_of = {lid: link for link, lid in net._link_ids.items()}
        for src in range(n):
            for dst in range(n):
                if src == dst:
                    continue
                route = net._route_table[src * n + dst]
                assert tuple(link_of[lid] for lid in route) == topo.route(src, dst)

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_degrading_before_or_after_first_use_is_identical(self, name):
        topo = TOPOLOGIES[name]()
        n = topo.nnodes
        u, v = topo.links()[len(topo.links()) // 2]

        def traffic(net):
            out = []
            for src in range(n):
                for dst in range(n):
                    out.append(net.transfer(src, dst, 8 * (src % 3), float(dst)))
            out.append(net.fanout(u, list(range(n)), 16, 3.0))
            return out, net.stats.snapshot()

        before = RoutedNetwork(topo, cycles_per_byte=1.6)
        before.degrade_link(u, v, latency_factor=3.0, bandwidth_factor=2.5)
        after = RoutedNetwork(topo, cycles_per_byte=1.6)
        traffic(after)  # every route and link id now exists
        after.reset()
        after.degrade_link(u, v, latency_factor=3.0, bandwidth_factor=2.5)
        assert traffic(after) == traffic(before)

    def test_fused_paths_match_generic_twins_bit_for_bit(self):
        # The fused transfer/fanout against Network.fanout and
        # _transfer_degraded (factors 1.0) on one seeded mix: fan-outs
        # that include the source and share links, duplicate
        # destinations, and an on_arrival that sends a message.
        def drive(net):
            rng = random.Random(7)
            out = []

            def hint(dst, arr):
                out.append(("hint", dst, arr))
                net.transfer(dst, (dst * 5 + 3) % 16, 0, arr)

            now = 0.0
            for step in range(400):
                now += rng.choice((0.0, 0.5, 3.0, 17.25))
                src = rng.randrange(16)
                nbytes = rng.choice((0, 8, 32))
                kind = rng.random()
                if kind < 0.4:
                    out.append(net.transfer(src, rng.randrange(16), nbytes, now))
                    continue
                dsts = rng.sample(range(16), rng.randint(1, 9))
                if kind < 0.55:
                    dsts.append(src)
                if kind > 0.9:
                    dsts.insert(rng.randrange(len(dsts)), rng.choice(dsts))
                arrivals, ack_done = net.fanout(
                    src, tuple(dsts), nbytes, now, hint if step % 3 == 0 else None
                )
                out.append((list(arrivals.items()), ack_done))
            return out

        def hexed(x):
            if isinstance(x, float):
                return x.hex()
            if isinstance(x, (list, tuple)):
                return [hexed(v) for v in x]
            return x

        topo = Mesh2D(4, 4)
        fused = RoutedNetwork(topo, cycles_per_byte=1.6)
        generic = RoutedNetwork(topo, cycles_per_byte=1.6)
        generic._generic = True
        got, want = drive(fused), drive(generic)
        assert hexed(got) == hexed(want)
        assert hexed(astuple(fused.stats)) == hexed(astuple(generic.stats))
        assert fused.stats.contention_cycles > 0.0  # the mix did contend
        # Link ids are private and made in a different order; a link
        # never built is free at 0.0.
        f_util, g_util = link_utilisation(fused), link_utilisation(generic)
        links = set(f_util) | set(g_util)
        assert {k: f_util.get(k, 0.0).hex() for k in links} == {
            k: g_util.get(k, 0.0).hex() for k in links
        }

    def test_fanout_counts_duplicate_destinations_as_the_generic_path(self):
        stats = []
        for generic in (False, True):
            net = RoutedNetwork(Mesh2D(4, 4), cycles_per_byte=1.6)
            net._generic = generic
            net.fanout(5, (1, 3, 3, 5, 9), 16, 10.0)
            stats.append(astuple(net.stats))
        assert stats[0] == stats[1]
        assert stats[0][:2] == (9, 80)  # 5 data messages + 4 acks

    def test_link_utilisation_keyed_by_directed_link(self):
        topo = Mesh2D(2, 2)
        net = RoutedNetwork(topo, cycles_per_byte=1.0)
        end = net.transfer(0, 3, 8, 0.0)
        util = link_utilisation(net)
        assert set(util) == set(topo.route(0, 3))
        assert all(isinstance(link, tuple) and len(link) == 2 for link in util)
        assert max(util.values()) < end
        net.transfer(3, 0, 8, 0.0)
        util = link_utilisation(net)
        assert set(util) == set(topo.route(0, 3)) | set(topo.route(3, 0))
        assert not set(topo.route(0, 3)) & set(topo.route(3, 0))
