"""Fault/degradation injection spec.

:class:`Degradation` is a frozen, picklable description of how a
machine deviates from the homogeneous ideal the paper assumes: per-node
CPU and memory-module slowdown factors, per-link latency/bandwidth
degradation, and a phase-shifted workload burst schedule.  It travels
inside :class:`repro.config.MachineConfig` (the ``degradation`` field),
so every existing layer that ships a config — job specs, the process
pool, the result cache, manifests — carries the injection spec for
free.

Three injection points consume it (see docs/scenarios.md for the full
model):

* the engine scales ``Compute`` cycles by the node's CPU factor and the
  burst schedule (``repro.sim.engine``);
* the directory memory systems scale the home node's
  ``mem_access_cycles`` by the node's memory factor
  (``repro.mem.systems.base``);
* the routed network scales per-hop router delay and link occupancy on
  the degraded links (``repro.network.routed``).

Every factor is a multiplier with **1.0 as the exact identity**: an
all-1.0 :class:`Degradation` exercises the injection code paths but is
bit-identical to an undegraded run (``x * 1.0 == x`` for every IEEE-754
double), which ``tests/test_scenarios.py`` pins against the engine
golden fixture.  ``degradation=None`` (the default) skips the injection
branches entirely.
"""

from __future__ import annotations

from dataclasses import dataclass


def _check_factors(name: str, entries: tuple[tuple[int, float], ...]) -> None:
    seen: set[int] = set()
    for node, factor in entries:
        if node < 0:
            raise ValueError(f"{name}: node ids must be >= 0, got {node}")
        if not factor > 0.0:
            raise ValueError(f"{name}: factors must be positive, got {factor} for node {node}")
        if node in seen:
            raise ValueError(f"{name}: duplicate entry for node {node}")
        seen.add(node)


@dataclass(frozen=True)
class Degradation:
    """Machine irregularity spec: all knobs are multipliers, 1.0 = ideal.

    Attributes
    ----------
    node_cpu:
        ``(node, factor)`` pairs; the engine multiplies every
        ``Compute`` op issued by ``node`` by ``factor`` (a limping CPU
        at 4.0 computes 4x slower).
    node_mem:
        ``(node, factor)`` pairs; directory/memory accesses served *at*
        home node ``node`` take ``factor``x the configured
        ``mem_access_cycles`` (a limping or contended memory module).
    links:
        ``(u, v, latency_factor, bandwidth_factor)`` tuples naming an
        undirected physical link of the topology; both directions are
        degraded.  ``latency_factor`` scales the per-hop router delay,
        ``bandwidth_factor`` scales the link's serialisation occupancy
        (slower wire = the message holds the link longer).
    burst_period / burst_duty / burst_factor / burst_phase:
        A rectangular-wave compute slowdown: within each
        ``burst_period`` cycles, the first ``burst_duty`` fraction is a
        burst during which ``Compute`` cycles are additionally
        multiplied by ``burst_factor``.  Node ``n``'s wave is shifted by
        ``n * burst_phase`` cycles, which is how phase-shifted
        (de-synchronised) load is modelled.  ``burst_period = 0``
        disables the schedule.
    """

    node_cpu: tuple[tuple[int, float], ...] = ()
    node_mem: tuple[tuple[int, float], ...] = ()
    links: tuple[tuple[int, int, float, float], ...] = ()
    burst_period: float = 0.0
    burst_duty: float = 0.0
    burst_factor: float = 1.0
    burst_phase: float = 0.0

    def __post_init__(self) -> None:
        _check_factors("node_cpu", self.node_cpu)
        _check_factors("node_mem", self.node_mem)
        for u, v, lat_f, bw_f in self.links:
            if u < 0 or v < 0 or u == v:
                raise ValueError(f"links: ({u}, {v}) is not a valid link")
            if not lat_f > 0.0 or not bw_f > 0.0:
                raise ValueError(f"links: factors must be positive on link ({u}, {v})")
        if self.burst_period < 0.0:
            raise ValueError("burst_period must be >= 0")
        if not 0.0 <= self.burst_duty <= 1.0:
            raise ValueError("burst_duty must be in [0, 1]")
        if not self.burst_factor > 0.0:
            raise ValueError("burst_factor must be positive")
        if self.burst_phase < 0.0:
            raise ValueError("burst_phase must be >= 0")

    # ------------------------------------------------------------------
    @property
    def affects_cpu(self) -> bool:
        """Whether the engine's Compute path must consult this spec."""
        return bool(self.node_cpu) or self.burst_period > 0.0

    def validate_for(self, nprocs: int) -> None:
        """Raise if any node id falls outside ``0..nprocs-1``."""
        for name, entries in (("node_cpu", self.node_cpu), ("node_mem", self.node_mem)):
            for node, _ in entries:
                if node >= nprocs:
                    raise ValueError(
                        f"degradation {name}: node {node} outside 0..{nprocs - 1}"
                    )
        for u, v, _, _ in self.links:
            if u >= nprocs or v >= nprocs:
                raise ValueError(
                    f"degradation links: ({u}, {v}) outside 0..{nprocs - 1}"
                )

    # ------------------------------------------------------------------
    def cpu_factor(self, node: int) -> float:
        for n, f in self.node_cpu:
            if n == node:
                return f
        return 1.0

    def mem_factor(self, node: int) -> float:
        for n, f in self.node_mem:
            if n == node:
                return f
        return 1.0

    def cpu_factors(self, nprocs: int) -> list[float]:
        """Dense per-node CPU factor table (engine hot-loop lookup)."""
        table = [1.0] * nprocs
        for n, f in self.node_cpu:
            table[n] = f
        return table

    def mem_factors(self, nprocs: int) -> list[float]:
        """Dense per-node memory factor table (home-node lookup)."""
        table = [1.0] * nprocs
        for n, f in self.node_mem:
            table[n] = f
        return table
