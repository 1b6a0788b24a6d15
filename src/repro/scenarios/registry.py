"""Named degradation scenarios over apps x machines.

A :class:`Scenario` names a machine-irregularity pattern (limping
nodes, a memory hotspot, slow mesh links, bursty phase-shifted load,
...) and knows how to build the :class:`~repro.scenarios.inject.Degradation`
that realises it for a concrete :class:`~repro.config.MachineConfig`.
Scenarios are selected by name from :data:`SCENARIO_REGISTRY` and tuned
with per-scenario knobs (``repro scenario run --set knob=value``).

Everything here is deterministic: degraded nodes and links are chosen
by fixed strides over the node/link space, never randomly, so a
scenario + config + knob set always produces the identical machine (and
therefore cacheable, bit-reproducible runs).

See ``docs/scenarios.md`` for the handbook: every scenario, its knobs,
the injection model, and worked examples.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from ..config import MachineConfig
from ..network.topology import make_topology
from .inject import Degradation


@dataclass(frozen=True)
class Knob:
    """One tunable parameter of a scenario."""

    name: str
    default: float | int
    help: str


@dataclass(frozen=True)
class Scenario:
    """A named degradation pattern with tunable knobs.

    ``build`` maps ``(config, knobs)`` — with every knob resolved to its
    default or override — to the :class:`Degradation` realising the
    scenario on that machine (``None`` for the clean baseline).
    """

    name: str
    summary: str
    description: str
    knobs: tuple[Knob, ...] = ()
    build: Callable[[MachineConfig, dict[str, float | int]], Degradation | None] = field(
        default=lambda config, knobs: None
    )

    def knob_defaults(self) -> dict[str, float | int]:
        return {k.name: k.default for k in self.knobs}

    def resolve_knobs(self, overrides: dict[str, float | int]) -> dict[str, float | int]:
        """Merge ``overrides`` into the defaults, rejecting unknown names.

        Override values are coerced to the default's type (a knob whose
        default is an ``int`` gets ``int(value)``), so CLI strings
        parsed as floats land as the right type.
        """
        values = self.knob_defaults()
        for name, value in overrides.items():
            if name not in values:
                valid = ", ".join(sorted(values)) or "(none)"
                raise ValueError(
                    f"scenario {self.name!r} has no knob {name!r}; valid knobs: {valid}"
                )
            values[name] = int(value) if isinstance(values[name], int) else float(value)
        return values

    def degradation(
        self, config: MachineConfig, overrides: dict[str, float | int] | None = None
    ) -> Degradation | None:
        """The injection spec realising this scenario on ``config``."""
        return self.build(config, self.resolve_knobs(overrides or {}))

    def apply(
        self, config: MachineConfig, overrides: dict[str, float | int] | None = None
    ) -> MachineConfig:
        """``config`` with this scenario's degradation installed."""
        return config.replace(degradation=self.degradation(config, overrides))


# ---------------------------------------------------------------------------
# deterministic node/link selection helpers


def _stride_nodes(nprocs: int, count: int) -> list[int]:
    """``count`` node ids spread evenly over ``0..nprocs-1``."""
    count = max(1, min(count, nprocs))
    return [i * nprocs // count for i in range(count)]


def undirected_links(config: MachineConfig) -> list[tuple[int, int]]:
    """Sorted undirected physical links of ``config``'s topology."""
    dims = config.mesh_dims if config.topology in ("mesh", "torus") else None
    topology = make_topology(config.topology, config.nprocs, dims)
    return sorted({(min(u, v), max(u, v)) for u, v in topology.links()})


def _stride_links(config: MachineConfig, count: int) -> list[tuple[int, int]]:
    """``count`` links spread evenly over the sorted link list."""
    links = undirected_links(config)
    if not links:
        return []
    count = max(1, min(count, len(links)))
    return [links[i * len(links) // count] for i in range(count)]


# ---------------------------------------------------------------------------
# scenario builders


def _build_hotspot(config: MachineConfig, knobs: dict) -> Degradation:
    factor = float(knobs["mem_factor"])
    nodes = _stride_nodes(config.nprocs, int(knobs["hot_nodes"]))
    return Degradation(node_mem=tuple((n, factor) for n in nodes))


def _build_limping(config: MachineConfig, knobs: dict) -> Degradation:
    cpu_f = float(knobs["cpu_factor"])
    mem_f = float(knobs["mem_factor"])
    nodes = _stride_nodes(config.nprocs, int(knobs["limping"]))
    return Degradation(
        node_cpu=tuple((n, cpu_f) for n in nodes),
        node_mem=tuple((n, mem_f) for n in nodes),
    )


def _build_slow_links(config: MachineConfig, knobs: dict) -> Degradation:
    lat_f = float(knobs["latency_factor"])
    bw_f = float(knobs["bandwidth_factor"])
    links = _stride_links(config, int(knobs["n_links"]))
    return Degradation(links=tuple((u, v, lat_f, bw_f) for u, v in links))


def _build_bursty(config: MachineConfig, knobs: dict) -> Degradation:
    period = float(knobs["period"])
    phase = period * float(knobs["phase_spread"]) / config.nprocs
    return Degradation(
        burst_period=period,
        burst_duty=float(knobs["duty"]),
        burst_factor=float(knobs["factor"]),
        burst_phase=phase,
    )


def _build_heterogeneous(config: MachineConfig, knobs: dict) -> Degradation:
    max_f = float(knobs["max_factor"])
    n = config.nprocs
    if n == 1:
        return Degradation(node_cpu=((0, max_f),))
    return Degradation(
        node_cpu=tuple(
            (i, 1.0 + (max_f - 1.0) * i / (n - 1)) for i in range(n)
        )
    )


#: The named scenarios, in presentation order.
SCENARIO_REGISTRY: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            name="baseline",
            summary="the clean homogeneous machine (no degradation)",
            description=(
                "The paper's machine exactly as configured: every node, link "
                "and phase identical.  All other scenarios are measured "
                "against this; it runs with degradation=None, i.e. the "
                "bit-identical fast paths."
            ),
        ),
        Scenario(
            name="hotspot",
            summary="a few contended memory modules serve every access slowly",
            description=(
                "hot_nodes memory modules (spread evenly over the node ids) "
                "take mem_factor x the configured mem_access_cycles per "
                "directory/memory access.  Models a hot home node: all "
                "blocks homed there stall every requester, so read/write "
                "stall grows for every system while the z-machine ideal is "
                "untouched."
            ),
            knobs=(
                Knob("hot_nodes", 1, "number of hot memory modules"),
                Knob("mem_factor", 4.0, "memory access slowdown at hot nodes"),
            ),
            build=_build_hotspot,
        ),
        Scenario(
            name="limping_nodes",
            summary="a few nodes limp: slow CPU and slow memory module",
            description=(
                "limping nodes (spread evenly) run Compute cycles "
                "cpu_factor x slower and serve home memory accesses "
                "mem_factor x slower — the classic limplock pattern.  "
                "Slow compute shifts barrier arrival times (sync_wait grows "
                "on the healthy nodes), slow memory stalls every requester "
                "whose blocks live on a limping home."
            ),
            knobs=(
                Knob("limping", 2, "number of limping nodes"),
                Knob("cpu_factor", 3.0, "compute slowdown on limping nodes"),
                Knob("mem_factor", 3.0, "memory access slowdown on limping nodes"),
            ),
            build=_build_limping,
        ),
        Scenario(
            name="slow_links",
            summary="a subset of mesh links with degraded latency/bandwidth",
            description=(
                "n_links undirected links (spread evenly over the sorted "
                "link list) get latency_factor x the per-hop router delay "
                "and bandwidth_factor x the serialisation occupancy.  "
                "Messages routed across a slow link arrive late and queue "
                "behind each other, so read stall and contention grow on "
                "the real systems; the z-machine (ideal network) is "
                "untouched."
            ),
            knobs=(
                Knob("n_links", 4, "number of degraded links"),
                Knob("latency_factor", 4.0, "router-delay multiplier on slow links"),
                Knob("bandwidth_factor", 4.0, "link occupancy multiplier on slow links"),
            ),
            build=_build_slow_links,
        ),
        Scenario(
            name="bursty",
            summary="phase-shifted rectangular compute bursts on every node",
            description=(
                "Every node's Compute cycles are multiplied by factor "
                "during the first duty fraction of each period-cycle "
                "window; node n's window is shifted by period * "
                "phase_spread / nprocs * n, so the bursts sweep across the "
                "machine instead of hitting synchronously.  Models bursty, "
                "de-synchronised background load; barrier-heavy codes pay "
                "for the slowest node of each phase."
            ),
            knobs=(
                Knob("period", 2000.0, "burst window length in cycles"),
                Knob("duty", 0.25, "fraction of each window spent bursting"),
                Knob("factor", 3.0, "compute slowdown during a burst"),
                Knob("phase_spread", 1.0, "per-node phase shift as a fraction of period/nprocs"),
            ),
            build=_build_bursty,
        ),
        Scenario(
            name="heterogeneous",
            summary="a linear CPU-speed gradient across the nodes",
            description=(
                "Node i computes 1.0 + (max_factor - 1.0) * i / (nprocs-1) "
                "x slower: node 0 is full speed, node nprocs-1 is "
                "max_factor x slower, everything in between on a line.  "
                "The Many-core Machine Model's point: overhead accounting "
                "parameterised by machine irregularity, not assumed "
                "uniform.  Statically balanced apps inherit the gradient "
                "as sync_wait at every barrier."
            ),
            knobs=(
                Knob("max_factor", 2.0, "slowdown of the slowest node"),
            ),
            build=_build_heterogeneous,
        ),
    )
}

#: Scenario names in registry (presentation) order.
SCENARIO_NAMES = tuple(SCENARIO_REGISTRY)


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name."""
    try:
        return SCENARIO_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {', '.join(SCENARIO_NAMES)}"
        ) from None


def apply_scenario(
    name: str, config: MachineConfig, overrides: dict[str, float | int] | None = None
) -> MachineConfig:
    """``config`` with the named scenario's degradation installed."""
    return get_scenario(name).apply(config, overrides)


def parse_overrides(pairs: list[str]) -> dict[str, float]:
    """Parse CLI ``knob=value`` strings into an override dict."""
    overrides: dict[str, float] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ValueError(f"expected knob=value, got {pair!r}")
        try:
            overrides[name] = float(value)
        except ValueError:
            raise ValueError(f"knob {name!r}: {value!r} is not a number") from None
    return overrides


def neutral_degradation(config: MachineConfig) -> Degradation:
    """An all-1.0 spec touching *every* injection path.

    Every node gets CPU and memory factors of exactly 1.0, every
    physical link latency/bandwidth factors of 1.0, and a burst schedule
    with burst_factor 1.0.  This forces every degraded code path to run
    while remaining bit-identical to the undegraded machine — the
    property ``tests/test_scenarios.py`` pins against the goldens.
    """
    nodes = tuple((n, 1.0) for n in range(config.nprocs))
    links = tuple((u, v, 1.0, 1.0) for u, v in undirected_links(config))
    return Degradation(
        node_cpu=nodes,
        node_mem=nodes,
        links=links,
        burst_period=1000.0,
        burst_duty=0.5,
        burst_factor=1.0,
        burst_phase=10.0,
    )
