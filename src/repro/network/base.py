"""Abstract interconnect interface and traffic statistics."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class NetStats:
    """Aggregate traffic counters for one simulation run."""

    messages: int = 0
    bytes: int = 0
    #: Sum over messages of (arrival - injection): total latency cycles.
    latency_cycles: float = 0.0
    #: Sum over messages of pure serialisation time: link-busy cycles.
    busy_cycles: float = 0.0
    #: Sum over messages of time spent queued behind other traffic.
    contention_cycles: float = 0.0

    def snapshot(self) -> dict[str, float]:
        """Point-in-time copy of every counter (interval metrics deltas)."""
        return {
            "messages": self.messages,
            "bytes": self.bytes,
            "latency_cycles": self.latency_cycles,
            "busy_cycles": self.busy_cycles,
            "contention_cycles": self.contention_cycles,
        }


class Network:
    """A point-to-point interconnect with reservation-based timing.

    ``transfer`` injects one message and returns its arrival time at the
    destination.  Implementations may model contention by remembering
    per-link reservations; the z-machine uses a contention-free instance.
    """

    def __init__(self) -> None:
        self.stats = NetStats()

    def transfer(self, src: int, dst: int, nbytes: int, start: float) -> float:
        raise NotImplementedError

    def multicast(
        self, src: int, dsts: list[int], nbytes: int, start: float
    ) -> dict[int, float]:
        """Send the same payload to several destinations.

        Modelled as serialised unicasts out of the source node (the
        source's injection port can hold one message at a time), which is
        how update fan-out was costed in contemporaneous studies.
        Returns per-destination arrival times.
        """
        arrivals: dict[int, float] = {}
        inject = start
        for dst in dsts:
            arrivals[dst] = self.transfer(src, dst, nbytes, inject)
            inject += self.serialisation_time(nbytes)
        return arrivals

    def fanout(
        self, src: int, dsts: list[int], nbytes: int, start: float,
        on_arrival=None,
    ) -> tuple[dict[int, float], float]:
        """Serialised multicast plus a zero-byte ack from each destination.

        Equivalent to :meth:`multicast` followed by, per destination in
        order, ``on_arrival(dst, arrival)`` (when given) and then
        ``transfer(dst, src, 0, arrival)`` — the same link-reservation
        sequence as the unfused helpers, fused because the coherence
        fan-outs (invalidate + ack, update + ack) are the dominant
        transfer pattern.  ``on_arrival`` runs *before* the ack is routed
        because delivery side effects may inject traffic of their own
        (e.g. a competitive-update replacement hint).  Returns
        ``(arrivals, ack_done)`` where ``ack_done`` is the latest ack
        arrival at ``src`` (``start`` if ``dsts`` is empty).

        Destinations are normally distinct: every coherence caller
        passes a ``SharerTuples`` tuple.  A duplicate sends one data
        message per occurrence (the later arrival replaces the earlier
        in ``arrivals``) and one ack per distinct destination.
        """
        arrivals = self.multicast(src, dsts, nbytes, start)
        ack_done = start
        for dst, arr in arrivals.items():
            if on_arrival is not None:
                on_arrival(dst, arr)
            ack = self.transfer(dst, src, 0, arr)
            if ack > ack_done:
                ack_done = ack
        return arrivals, ack_done

    def serialisation_time(self, nbytes: int) -> float:
        """Cycles to put ``nbytes`` (plus header) onto a link."""
        raise NotImplementedError

    def reset_stats(self) -> None:
        self.stats = NetStats()
