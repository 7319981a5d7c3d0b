"""Bit-identity proof for the declarative scenario refactor.

``goldens.json`` was generated by the *pre-refactor* experiment code
(hand-wired ``build_network`` + per-experiment app plumbing).  These
tests rerun everything through the spec layer and assert the outputs,
event-level trace digests and metrics are byte-for-byte identical:
the refactor moved plumbing, not physics.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.params import Rate
from repro.experiments.registry import EXPERIMENTS
from repro.parallel import SweepCache
from repro.scenario import (
    FaultSpec,
    FlowSpec,
    MacParamsSpec,
    MobilitySpec,
    ScenarioSpec,
    StackSpec,
    TopologySpec,
    TrafficSpec,
    build,
)

GOLDENS = json.loads(
    (Path(__file__).with_name("goldens.json")).read_text(encoding="utf-8")
)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def trace_digest(tracer) -> str:
    return sha(json.dumps(tracer.counters(), sort_keys=True))


# ------------------------------------------------- registry experiments


@pytest.mark.parametrize("name", sorted(GOLDENS["experiments"]))
def test_registry_experiment_matches_pre_refactor_output(name):
    entry = GOLDENS["experiments"][name]
    text = EXPERIMENTS[name].run(**entry["kwargs"])
    assert sha(text) == entry["sha256"]


def test_serial_pool_and_cache_outputs_identical(tmp_path):
    """One sweep experiment: serial == --jobs 2 == warm cache, byte-level."""
    kwargs = GOLDENS["experiments"]["figure7"]["kwargs"]
    cache = SweepCache(root=tmp_path / "cache")
    serial = EXPERIMENTS["figure7"].run(**kwargs)
    pooled = EXPERIMENTS["figure7"].run(**kwargs, jobs=2, cache=cache)
    warm = EXPERIMENTS["figure7"].run(**kwargs, cache=cache)
    assert serial == pooled == warm
    assert sha(serial) == GOLDENS["experiments"]["figure7"]["sha256"]
    assert cache.hits > 0


# ------------------------------------------------- hand-wired scenarios
#
# Spec-layer equivalents of the scenarios make_goldens.py wired by hand.
# Each entry: (spec, metric extractor run after spec.duration_s).


def _spec_two_node_udp():
    spec = ScenarioSpec(
        name="two-node-udp",
        topology=TopologySpec.line(0, 10, fast_sigma_db=0.0),
        stack=StackSpec(data_rate_mbps=11.0),
        traffic=TrafficSpec(
            flows=(FlowSpec(kind="cbr", src=0, dst=1, payload_bytes=512),)
        ),
        seed=3,
        duration_s=0.5,
        warmup_s=0.1,
    )
    return spec, lambda net: net.flow(0).throughput_bps(0.5)


def _spec_two_node_tcp():
    spec = ScenarioSpec(
        name="two-node-tcp",
        topology=TopologySpec.line(0, 10, fast_sigma_db=0.0),
        stack=StackSpec(data_rate_mbps=2.0, rts_enabled=True),
        traffic=TrafficSpec(flows=(FlowSpec(kind="bulk-tcp", src=0, dst=1),)),
        seed=4,
        duration_s=0.5,
        warmup_s=0.1,
    )
    return spec, lambda net: net.flow(0).throughput_bps(0.5)


def _spec_loss_probe():
    spec = ScenarioSpec(
        name="loss-probe",
        topology=TopologySpec.line(0.0, 60.0),
        stack=StackSpec(
            data_rate_mbps=11.0,
            mac=MacParamsSpec(short_retry_limit=0, long_retry_limit=0),
        ),
        traffic=TrafficSpec(
            flows=(
                FlowSpec(
                    kind="cbr",
                    src=0,
                    dst=1,
                    payload_bytes=512,
                    rate_bps=512 * 8 / 0.005,
                ),
            )
        ),
        seed=61,
        duration_s=60 * 0.005,
    )

    def metric(net):
        flow = net.flow(0)
        flow.source.stop()
        net.sim.run()
        return 1.0 - flow.sink.packets / flow.source.packets_accepted

    return spec, metric


def _spec_four_node_udp():
    from repro.channel.placement import figure6_placement

    positions = [x for x, _ in figure6_placement().positions]
    spec = ScenarioSpec(
        name="four-node-udp",
        topology=TopologySpec.line(*positions),
        stack=StackSpec(data_rate_mbps=11.0),
        traffic=TrafficSpec(
            flows=(
                FlowSpec(kind="cbr", src=0, dst=1, port=5001, payload_bytes=512),
                FlowSpec(kind="cbr", src=2, dst=3, port=5002, payload_bytes=512),
            )
        ),
        seed=1,
        duration_s=1.0,
        warmup_s=0.2,
    )
    return spec, lambda net: [h.throughput_bps(1.0) for h in net.flows]


def _spec_blackout():
    spec = ScenarioSpec(
        name="blackout",
        topology=TopologySpec.line(0, 10, fast_sigma_db=0.0),
        stack=StackSpec(data_rate_mbps=11.0),
        traffic=TrafficSpec(
            flows=(
                FlowSpec(
                    kind="cbr", src=0, dst=1, payload_bytes=512, rate_bps=1.5e6
                ),
            )
        ),
        faults=(
            FaultSpec(
                kind="link-blackout",
                start_s=2.0,
                duration_s=2.0,
                node_a=0,
                node_b=1,
            ),
        ),
        seed=1,
        duration_s=6.0,
    )
    return spec, lambda net: net.flow(0).sink.packets


def _spec_crash_reboot():
    spec = ScenarioSpec(
        name="crash-reboot",
        topology=TopologySpec.line(0, 10, fast_sigma_db=0.0),
        traffic=TrafficSpec(flows=(FlowSpec(kind="bulk-tcp", src=0, dst=1),)),
        faults=(
            FaultSpec(
                kind="node-crash",
                start_s=2.0,
                duration_s=2.0,
                node=0,
                restart_flows=(0,),
            ),
        ),
        seed=1,
        duration_s=6.0,
    )
    return spec, lambda net: net.flow(0).sink.bytes


def _spec_walk_away():
    spec = ScenarioSpec(
        name="walk-away",
        topology=TopologySpec.line(
            0.0,
            5.0,
            propagation="two-ray",
            mobility=(MobilitySpec(node=1, speed_m_s=10.0),),
        ),
        stack=StackSpec(data_rate_mbps=11.0, radio="ns2"),
        traffic=TrafficSpec(
            flows=(
                FlowSpec(
                    kind="cbr",
                    src=0,
                    dst=1,
                    payload_bytes=512,
                    rate_bps=512 * 8 / 0.02,
                ),
            )
        ),
        seed=1,
        duration_s=5.0,
    )
    return spec, lambda net: len(net.flow(0).sink.rx_times_ns)


SCENARIO_SPECS = {
    "two-node-udp": _spec_two_node_udp,
    "two-node-tcp": _spec_two_node_tcp,
    "loss-probe": _spec_loss_probe,
    "four-node-udp": _spec_four_node_udp,
    "blackout": _spec_blackout,
    "crash-reboot": _spec_crash_reboot,
    "walk-away": _spec_walk_away,
}


def test_every_golden_scenario_has_a_spec():
    assert set(SCENARIO_SPECS) == set(GOLDENS["scenarios"])


@pytest.mark.parametrize("name", sorted(SCENARIO_SPECS))
def test_spec_rebuild_is_bit_identical(name):
    """Spec -> JSON -> spec -> network reproduces the hand-wired run."""
    spec, metric = SCENARIO_SPECS[name]()
    restored = ScenarioSpec.from_json(spec.to_json())
    assert restored == spec
    assert restored.canonical_json() == spec.canonical_json()
    net = build(restored)
    net.run(restored.duration_s)
    golden = GOLDENS["scenarios"][name]
    assert metric(net) == golden["metric"]
    assert trace_digest(net.tracer) == golden["trace"]


def test_rate_enum_round_trips_through_spec():
    """StackSpec stores rates as floats but maps back onto the enum."""
    for rate in (1.0, 2.0, 5.5, 11.0):
        spec = _spec_two_node_udp()[0]
        doc = spec.to_dict()
        doc["stack"]["data_rate_mbps"] = rate
        assert Rate.from_mbps(
            ScenarioSpec.from_dict(doc).stack.data_rate_mbps
        ).mbps == rate
