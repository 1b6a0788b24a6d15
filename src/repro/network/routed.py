"""Routed interconnect with per-link contention.

Messages are timed with a cut-through (wormhole-like) model: the head of
the message pays a router delay per hop, the tail follows after the
serialisation time, and each directed link can carry one message at a
time.  A message arriving at a busy link queues until the link frees.

Reservations are made at injection time: the contention a message sees is
the link state at the moment its transaction is issued.  This is the
standard fast-simulation trade-off (see DESIGN.md).
"""

from __future__ import annotations

from .base import Network
from .topology import Topology


class RoutedNetwork(Network):
    """Topology-routed network with link reservation contention."""

    def __init__(
        self,
        topology: Topology,
        cycles_per_byte: float,
        header_bytes: int = 8,
        router_delay: float = 2.0,
    ):
        super().__init__()
        if cycles_per_byte <= 0:
            raise ValueError("cycles_per_byte must be positive")
        self.topology = topology
        self.cycles_per_byte = cycles_per_byte
        self.header_bytes = header_bytes
        self.router_delay = router_delay
        #: Directed link -> dense integer id; reservations live in the
        #: list below so the per-hop bookkeeping is a list index instead
        #: of a tuple-keyed dict probe.
        self._link_ids: dict[tuple[int, int], int] = {}
        self._link_free: list[float] = []
        #: Route table indexed ``src * nnodes + dst``: the route as a
        #: link-id tuple, or None until the pair first sends.
        #: Topologies are static and deterministic, yet route() rebuilds
        #: the hop list per message — ~15% of a protocol-bound run's
        #: profile before caching.  Filled lazily, so building a machine
        #: builds no routes.
        self._nnodes = topology.nnodes
        self._route_table: list[tuple[int, ...] | None] = [None] * (
            topology.nnodes * topology.nnodes
        )
        #: Per-source route pairs for :meth:`fanout`: ``_pairs[src][dst]``
        #: is ``(route src->dst, route dst->src)``, or ``()`` for ``src``
        #: itself, so a fan-out message costs one list index and one
        #: truth test instead of two route-table probes and a ``dst ==
        #: src`` branch.  A row is filled from the route table the first
        #: time its source fans out: at most ``nnodes`` rows of
        #: ``nnodes`` pairs, and still no routes at construction.
        self._pairs: list[list[tuple] | None] = [None] * topology.nnodes
        #: Link degradation (see :meth:`degrade_link`).  ``_slow_pairs``
        #: maps a *directed* link to its (latency, bandwidth) factors;
        #: ``_lat_f`` / ``_bw_f`` are the per-link-id tables the degraded
        #: transfer path indexes.
        self._slow_pairs: dict[tuple[int, int], tuple[float, float]] = {}
        self._lat_f: list[float] = []
        self._bw_f: list[float] = []
        #: Send every message through the generic paths:
        #: :meth:`_transfer_degraded` and :meth:`Network.fanout` instead
        #: of the fused fast ones.  Two callers set it: ``degrade_link``,
        #: because only the generic paths apply link factors, and
        #: :func:`repro.sim.reference.use_reference_engine`, so the
        #: reference run checks the fused paths against their generic
        #: twins (bit-identical at factor 1.0).  While it is False the
        #: hot paths cost one boolean check and nothing else.
        self._generic = False

    def serialisation_time(self, nbytes: int) -> float:
        return (nbytes + self.header_bytes) * self.cycles_per_byte

    def _route(self, src: int, dst: int) -> tuple[int, ...]:
        link_ids = self._link_ids
        ids = []
        for link in self.topology.route(src, dst):
            lid = link_ids.get(link)
            if lid is None:
                lid = len(self._link_free)
                link_ids[link] = lid
                self._link_free.append(0.0)
                lat_f, bw_f = self._slow_pairs.get(link, (1.0, 1.0))
                self._lat_f.append(lat_f)
                self._bw_f.append(bw_f)
            ids.append(lid)
        route = self._route_table[src * self._nnodes + dst] = tuple(ids)
        return route

    def _pair_row(self, src: int) -> list[tuple]:
        table = self._route_table
        nnodes = self._nnodes
        row: list[tuple] = []
        for dst in range(nnodes):
            if dst == src:
                row.append(())
                continue
            there = table[src * nnodes + dst]
            if there is None:
                there = self._route(src, dst)
            back = table[dst * nnodes + src]
            if back is None:
                back = self._route(dst, src)
            row.append((there, back))
        self._pairs[src] = row
        return row

    def degrade_link(
        self, u: int, v: int, latency_factor: float = 1.0,
        bandwidth_factor: float = 1.0,
    ) -> None:
        """Degrade the *undirected* physical link ``(u, v)``.

        ``latency_factor`` scales the per-hop router delay on the link,
        ``bandwidth_factor`` scales its serialisation occupancy (a slower
        wire holds the link longer, so downstream traffic queues more).
        Both directions are affected.  Factors of exactly 1.0 are
        bit-identical to the undegraded link (IEEE-754 multiplication by
        1.0 is an identity), which the neutrality tests rely on.
        """
        if not latency_factor > 0.0 or not bandwidth_factor > 0.0:
            raise ValueError("link degradation factors must be positive")
        links = self.topology.links()
        if (u, v) not in links and (v, u) not in links:
            raise ValueError(
                f"({u}, {v}) is not a physical link of this topology"
            )
        for pair in ((u, v), (v, u)):
            self._slow_pairs[pair] = (latency_factor, bandwidth_factor)
            lid = self._link_ids.get(pair)
            if lid is not None:
                self._lat_f[lid] = latency_factor
                self._bw_f[lid] = bandwidth_factor
        self._generic = True

    def transfer(self, src: int, dst: int, nbytes: int, start: float) -> float:
        if self._generic:
            return self._transfer_degraded(src, dst, nbytes, start)
        stats = self.stats
        if src == dst:
            # Local delivery: no network traversal.
            stats.messages += 1
            stats.bytes += nbytes
            return start
        ser = (nbytes + self.header_bytes) * self.cycles_per_byte
        router_delay = self.router_delay
        head = start
        queued = 0.0
        route = self._route_table[src * self._nnodes + dst]
        if route is None:
            route = self._route(src, dst)
        link_free = self._link_free
        # A hop queues only behind a busy link; a free one adds nothing
        # to ``queued``, and an unqueued message adds nothing to the
        # (non-negative) contention sum, so skipping the +0.0 changes
        # no bit.
        for lid in route:
            free_at = link_free[lid]
            if free_at > head:
                queued += free_at - head
                head = free_at
            link_free[lid] = head + ser
            head += router_delay
        arrival = head + ser
        stats.messages += 1
        stats.bytes += nbytes
        stats.latency_cycles += arrival - start
        stats.busy_cycles += ser
        if queued:
            stats.contention_cycles += queued
        return arrival

    def _transfer_degraded(self, src: int, dst: int, nbytes: int, start: float) -> float:
        # transfer() with per-link factors applied: each hop's router
        # delay is scaled by the link's latency factor and its occupancy
        # (serialisation reservation) by the bandwidth factor; the tail
        # trails the head by the *last* link's occupancy.  With all
        # factors 1.0 every multiply is an exact identity, so this path
        # is bit-identical to the fast one.
        stats = self.stats
        if src == dst:
            stats.messages += 1
            stats.bytes += nbytes
            return start
        ser = (nbytes + self.header_bytes) * self.cycles_per_byte
        router_delay = self.router_delay
        head = start
        queued = 0.0
        route = self._route_table[src * self._nnodes + dst]
        if route is None:
            route = self._route(src, dst)
        link_free = self._link_free
        lat_f = self._lat_f
        bw_f = self._bw_f
        occ = ser
        for lid in route:
            occ = ser * bw_f[lid]
            free_at = link_free[lid]
            depart = free_at if free_at > head else head
            queued += depart - head
            link_free[lid] = depart + occ
            head = depart + router_delay * lat_f[lid]
        arrival = head + occ
        stats.messages += 1
        stats.bytes += nbytes
        stats.latency_cycles += arrival - start
        stats.busy_cycles += ser
        stats.contention_cycles += queued
        return arrival

    def fanout(
        self, src: int, dsts: list[int], nbytes: int, start: float,
        on_arrival=None,
    ) -> tuple[dict[int, float], float]:
        """Hand-fused :meth:`Network.fanout`: one frame for the whole
        multicast + ack exchange.

        Destinations are normally distinct (every coherence caller
        passes a ``SharerTuples`` tuple).  A duplicate is counted as the
        generic path counts it: each occurrence sends a data message and
        reserves its links, the later arrival replaces the earlier one,
        and one ack returns per distinct destination.  So the fan-out
        adds ``len(dsts) + len(arrivals)`` messages and ``nbytes *
        len(dsts)`` bytes, once, at the end.

        Link reservations happen in exactly the generic order (all data
        messages, then per destination: ``on_arrival``, then its ack),
        and the float counters are summed in that same order in locals,
        so timing and every counter are bit-identical.  ``on_arrival``
        may send traffic of its own (RCcomp's replacement hint), so the
        float counters are stored back before it runs and reloaded
        after; the link list is the same object :meth:`transfer` uses.
        """
        if self._generic:
            # The generic helper routes everything through transfer(),
            # which applies the per-link factors; it is documented above
            # to be bit-identical to this fused loop.
            return Network.fanout(self, src, dsts, nbytes, start, on_arrival)
        stats = self.stats
        pairs = self._pairs[src]
        if pairs is None:
            pairs = self._pair_row(src)
        link_free = self._link_free
        router_delay = self.router_delay
        cpb = self.cycles_per_byte
        hdr = self.header_bytes
        ser = (nbytes + hdr) * cpb
        ack_ser = hdr * cpb
        latency = stats.latency_cycles
        busy = stats.busy_cycles
        contention = stats.contention_cycles
        arrivals: dict[int, float] = {}
        inject = start
        for dst in dsts:
            pair = pairs[dst]
            if pair:
                head = inject
                queued = 0.0
                for lid in pair[0]:
                    free_at = link_free[lid]
                    if free_at > head:
                        queued += free_at - head
                        head = free_at
                    link_free[lid] = head + ser
                    head += router_delay
                arrival = head + ser
                latency += arrival - inject
                busy += ser
                if queued:
                    contention += queued
                arrivals[dst] = arrival
            else:
                arrivals[dst] = inject  # local delivery: no traversal
            inject += ser
        ack_done = start
        for dst, arr in arrivals.items():
            if on_arrival is not None:
                stats.latency_cycles = latency
                stats.busy_cycles = busy
                stats.contention_cycles = contention
                on_arrival(dst, arr)
                latency = stats.latency_cycles
                busy = stats.busy_cycles
                contention = stats.contention_cycles
            pair = pairs[dst]
            if pair:
                head = arr
                queued = 0.0
                for lid in pair[1]:
                    free_at = link_free[lid]
                    if free_at > head:
                        queued += free_at - head
                        head = free_at
                    link_free[lid] = head + ack_ser
                    head += router_delay
                ack = head + ack_ser
                latency += ack - arr
                busy += ack_ser
                if queued:
                    contention += queued
            else:
                ack = arr
            if ack > ack_done:
                ack_done = ack
        stats.messages += len(dsts) + len(arrivals)
        stats.bytes += nbytes * len(dsts)
        stats.latency_cycles = latency
        stats.busy_cycles = busy
        stats.contention_cycles = contention
        return arrivals, ack_done

    def reset(self) -> None:
        """Clear link reservations and statistics."""
        self._link_free = [0.0] * len(self._link_free)
        self.reset_stats()
