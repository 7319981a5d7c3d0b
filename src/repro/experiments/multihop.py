"""Scale experiments: multihop chains and neighbour density.

Two extensions the spatial medium + shortest-path routing open up
(neither is measurable in the paper's four-station test-bed):

* ``multihop`` — end-to-end UDP throughput over a relay chain vs hop
  count.  Stations sit ``spacing_m`` apart, in range only of their
  direct neighbours, so every extra hop adds a store-and-forward stage
  that competes with its predecessor for the same spectrum — the
  1/hops-style decay the multihop literature reports ("Multihop
  Adjustment for the Number of Nodes in Contention-Based MAC
  Protocols", PAPERS.md).
* ``density`` — per-node delivered throughput vs mean neighbour count
  at N in {50, 100, 250}.  Stations scatter uniformly at *constant
  density* (:meth:`TopologySpec.random` grows the field with N), each
  offering the same low CBR load to its nearest neighbour; as N grows
  the contention neighbourhood statistics stay put, so per-node
  throughput holding steady is the scalability null result — and any
  decay measures contention effects, not artefacts of a shrinking
  arena ("Impact of Mobility and Transmission Range on Backoff
  Algorithms", PAPERS.md).

Both run with ``fast_sigma_db=0`` so the medium's O(neighbours) grid
pass carries them — the property that makes N=250 practical at all
(see benchmarks/BENCH_multihop.json).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.analysis.tables import render_table
from repro.channel.propagation import LogDistancePathLoss
from repro.channel.shadowing import distance_m
from repro.core.range_model import solve_range_m
from repro.net.routing import connectivity_graph
from repro.parallel import SweepCache
from repro.phy.radio import RadioParameters
from repro.scenario import (
    FlowSpec,
    MobilitySpec,
    ScenarioNetwork,
    ScenarioSpec,
    StackSpec,
    TopologySpec,
    TrafficSpec,
    run_scenarios,
)

_PORT = 5001

#: Chain hop counts measured by the default sweep (>= 4 hops included:
#: the acceptance bar for real store-and-forward multihop).
DEFAULT_HOP_COUNTS: tuple[int, ...] = (1, 2, 4, 6, 8)

#: Station counts of the default density sweep.
DEFAULT_DENSITY_NODES: tuple[int, ...] = (50, 100, 250)

#: Chain spacing: beyond nothing, but well inside the ~94 m 2 Mbps
#: range — each station reaches exactly its chain neighbours.
CHAIN_SPACING_M = 70.0

#: Density-field spacing (one station per 60 m cell on average).
DENSITY_SPACING_M = 60.0

#: Offered load per station in the density sweep: low enough that a
#: 50-station field is unsaturated, high enough that a dense
#: neighbourhood shows contention.
DENSITY_RATE_BPS = 16_000.0


@dataclass(frozen=True)
class MultihopPoint:
    """End-to-end throughput over one chain length."""

    hops: int
    delivered_bps: float
    forwarded: int


@dataclass(frozen=True)
class DensityPoint:
    """Per-node throughput at one field size."""

    nodes: int
    mean_neighbours: float
    offered_bps: float
    per_node_bps: float
    delivered_total_bps: float


def multihop_spec(
    hops: int,
    duration_s: float,
    warmup_s: float,
    seed: int,
    rate_mbps: float = 2.0,
    payload_bytes: int = 512,
) -> ScenarioSpec:
    """A saturated CBR flow across a ``hops``-hop relay chain."""
    return ScenarioSpec(
        name="multihop-chain",
        topology=TopologySpec.chain(hops + 1, CHAIN_SPACING_M, fast_sigma_db=0.0),
        stack=StackSpec(data_rate_mbps=rate_mbps, routing="shortest-path"),
        traffic=TrafficSpec(
            flows=(
                FlowSpec(
                    kind="cbr",
                    src=0,
                    dst=hops,
                    port=_PORT,
                    payload_bytes=payload_bytes,
                    rate_bps=None,  # saturated: measure the chain capacity
                ),
            )
        ),
        seed=seed,
        duration_s=duration_s,
        warmup_s=warmup_s,
    )


def multihop_metrics(net: ScenarioNetwork) -> list[float]:
    """Extractor: ``[delivered_bps, total_forwards]`` for the chain flow."""
    assert net.spec is not None
    flow = net.flow(0)
    forwarded = sum(node.ip.datagrams_forwarded for node in net.nodes)
    return [flow.sink.throughput_bps(net.spec.duration_s), float(forwarded)]


_MULTIHOP_METRICS = "repro.experiments.multihop:multihop_metrics"


def run_multihop_sweep(
    hop_counts: Sequence[int] = DEFAULT_HOP_COUNTS,
    duration_s: float = 5.0,
    warmup_s: float = 0.5,
    seed: int = 1,
    jobs: int = 1,
    cache: SweepCache | None = None,
    policy=None,
) -> list[MultihopPoint]:
    """End-to-end chain throughput at each hop count."""
    warmup_s = min(warmup_s, duration_s / 2)
    specs = [
        multihop_spec(hops, duration_s, warmup_s, seed) for hops in hop_counts
    ]
    values = run_scenarios(
        specs, extract=_MULTIHOP_METRICS, jobs=jobs, cache=cache, policy=policy
    )
    return [
        MultihopPoint(
            hops=hops, delivered_bps=delivered_bps, forwarded=int(forwarded)
        )
        for hops, (delivered_bps, forwarded) in zip(hop_counts, values)
    ]


def format_multihop_sweep(points: list[MultihopPoint]) -> str:
    """Throughput-vs-hop-count table."""
    return render_table(
        ["hops", "delivered (kbps)", "forwards"],
        [
            (point.hops, point.delivered_bps / 1e3, point.forwarded)
            for point in points
        ],
        title="Extension - chain throughput vs hop count (2 Mbps, saturated UDP)",
    )


def _nearest_neighbour(
    positions: Sequence[tuple[float, float]], index: int
) -> int:
    """Index of the closest other station (lowest index on ties)."""
    best, best_d = -1, float("inf")
    for other, position in enumerate(positions):
        if other == index:
            continue
        d = distance_m(positions[index], position)
        if d < best_d:
            best, best_d = other, d
    return best


def density_spec(
    n: int,
    duration_s: float,
    warmup_s: float,
    seed: int,
    rate_mbps: float = 2.0,
    payload_bytes: int = 512,
    rate_bps: float = DENSITY_RATE_BPS,
    spacing_m: float = DENSITY_SPACING_M,
) -> ScenarioSpec:
    """``n`` stations at constant density, each a CBR to its nearest
    neighbour (ports are unique per source, sinks never collide)."""
    topology = TopologySpec.random(
        n, spacing_m, seed=seed, fast_sigma_db=0.0
    )
    flows = tuple(
        FlowSpec(
            kind="cbr",
            src=src,
            dst=_nearest_neighbour(topology.positions_m, src),
            port=_PORT + src,
            payload_bytes=payload_bytes,
            rate_bps=rate_bps,
        )
        for src in range(n)
    )
    return ScenarioSpec(
        name="density",
        topology=topology,
        stack=StackSpec(data_rate_mbps=rate_mbps, routing="shortest-path"),
        traffic=TrafficSpec(flows=flows),
        seed=seed,
        duration_s=duration_s,
        warmup_s=warmup_s,
    )


def density_metrics(net: ScenarioNetwork) -> list[float]:
    """Extractor: ``[per_node_bps, total_bps]`` over every flow's sink."""
    assert net.spec is not None
    duration_s = net.spec.duration_s
    total = sum(
        flow.sink.throughput_bps(duration_s) for flow in net.flows
    )
    return [total / len(net.flows), total]


_DENSITY_METRICS = "repro.experiments.multihop:density_metrics"


def mean_neighbours(spec: ScenarioSpec) -> float:
    """Mean connectivity degree of a spec's topology at its data rate."""
    radio = RadioParameters.calibrated()
    from repro.core.params import Rate

    rate = Rate.from_mbps(spec.stack.data_rate_mbps)
    max_range_m = solve_range_m(
        LogDistancePathLoss.calibrated().path_loss_db,
        radio.tx_power_dbm,
        radio.sensitivity_dbm[rate],
    )
    graph = connectivity_graph(spec.topology.positions_m, max_range_m)
    return sum(len(neighbours) for neighbours in graph.values()) / len(graph)


def run_density_sweep(
    n_values: Sequence[int] = DEFAULT_DENSITY_NODES,
    duration_s: float = 3.0,
    warmup_s: float = 0.5,
    seed: int = 1,
    jobs: int = 1,
    cache: SweepCache | None = None,
    policy=None,
) -> list[DensityPoint]:
    """Per-node throughput at each field size."""
    warmup_s = min(warmup_s, duration_s / 2)
    specs = [
        density_spec(n, duration_s, warmup_s, seed) for n in n_values
    ]
    values = run_scenarios(
        specs, extract=_DENSITY_METRICS, jobs=jobs, cache=cache, policy=policy
    )
    return [
        DensityPoint(
            nodes=n,
            mean_neighbours=mean_neighbours(spec),
            offered_bps=DENSITY_RATE_BPS,
            per_node_bps=per_node_bps,
            delivered_total_bps=total_bps,
        )
        for (n, spec), (per_node_bps, total_bps) in zip(
            zip(n_values, specs), values
        )
    ]


def format_density_sweep(points: list[DensityPoint]) -> str:
    """Per-node-throughput-vs-density table."""
    return render_table(
        [
            "nodes",
            "mean neighbours",
            "offered/node (kbps)",
            "delivered/node (kbps)",
            "total (Mbps)",
        ],
        [
            (
                point.nodes,
                point.mean_neighbours,
                point.offered_bps / 1e3,
                point.per_node_bps / 1e3,
                point.delivered_total_bps / 1e6,
            )
            for point in points
        ],
        title="Extension - per-node throughput vs neighbour density (2 Mbps)",
    )


def scale_point(
    n: int,
    duration_s: float,
    seed: int,
    spacing_m: float = DENSITY_SPACING_M,
    mobile_speed_m_s: float = 0.0,
) -> float:
    """One full density-style scenario; returns the total delivered bps.

    The perf benchmarks run this at N=250 to exercise the medium's grid
    pass at scale: a wide ``spacing_m`` so the field dwarfs the
    interference radius, and every station mobile (speeds staggered per
    node so there is real relative motion) — each position update evicts
    the mover's cached pair geometry, and the grid pass rebuilds it only
    for the neighbours it still examines.
    """
    from repro.scenario import build
    from repro.units import s_to_ns

    spec = density_spec(
        n, duration_s, warmup_s=0.0, seed=seed, spacing_m=spacing_m
    )
    if mobile_speed_m_s > 0:
        mobility = tuple(
            MobilitySpec(node=node, speed_m_s=mobile_speed_m_s * (1.0 + 0.01 * node))
            for node in range(n)
        )
        spec = replace(spec, topology=replace(spec.topology, mobility=mobility))
    net = build(spec)
    net.sim.run(until_ns=s_to_ns(duration_s))
    return sum(
        flow.sink.throughput_bps(duration_s) for flow in net.flows
    )
