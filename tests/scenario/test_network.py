"""ScenarioNetwork runtime guards and warmup window accounting."""

from __future__ import annotations

import pytest

from repro.core.airtime import AirtimeCalculator
from repro.core.params import Dot11bConfig, PlcpParameters, Rate
from repro.errors import ConfigurationError
from repro.phy.plans import control_frame_plan, data_frame_plan
from repro.scenario import (
    FlowSpec,
    ScenarioSpec,
    TopologySpec,
    TrafficSpec,
    build,
)
from repro.scenario.builder import build_network


def _net():
    return build(
        ScenarioSpec(
            topology=TopologySpec.line(0, 10, fast_sigma_db=0.0),
            traffic=TrafficSpec(
                flows=(FlowSpec(kind="cbr", src=0, dst=1, payload_bytes=512),)
            ),
            seed=1,
            duration_s=1.0,
        )
    )


@pytest.mark.parametrize(
    "duration",
    [0.0, -0.5, float("nan"), float("inf"), -float("inf"), "1.0", None, True],
)
def test_run_rejects_bad_durations(duration):
    with pytest.raises(ConfigurationError):
        _net().run(duration)


def test_run_advances_to_the_horizon():
    net = _net()
    net.run(0.25)
    assert net.sim.now_ns == pytest.approx(0.25e9)


def test_run_with_warmup_returns_measurement_window():
    net = _net()
    window = net.run_with_warmup(1.0, warmup_s=0.25)
    assert window == pytest.approx(0.75)
    assert net.sim.now_ns == pytest.approx(1.0e9)


def test_run_with_warmup_rejects_warmup_at_or_past_duration():
    with pytest.raises(ConfigurationError, match="warmup"):
        _net().run_with_warmup(1.0, warmup_s=1.0)
    with pytest.raises(ConfigurationError, match="warmup"):
        _net().run_with_warmup(1.0, warmup_s=-0.1)


def test_flow_lookup_is_bounds_checked():
    net = _net()
    assert net.flow(0).label == "1->2"
    with pytest.raises(ConfigurationError):
        net.flow(1)


@pytest.mark.parametrize(
    "dot11", [None, Dot11bConfig(plcp=PlcpParameters.short())], ids=["default", "short-plcp"]
)
def test_stations_of_one_network_share_their_frame_plans(dot11):
    net = build_network([0, 10, 20], dot11=dot11)
    first, second = net.nodes[0].mac, net.nodes[2].mac
    private = AirtimeCalculator(first.config.dot11)
    mac = first.config.dot11.mac
    for name, bits in (("ack", mac.ack_bits), ("cts", mac.cts_bits), ("rts", mac.rts_bits)):
        plan = getattr(first, f"_{name}_plan")
        assert getattr(second, f"_{name}_plan") is plan
        assert plan.duration_ns == control_frame_plan(name, bits, private).duration_ns
    for msdu_bytes, rate in ((1500, Rate.MBPS_11), (540, Rate.MBPS_2)):
        plan = data_frame_plan(msdu_bytes, rate, first._airtime)
        assert data_frame_plan(msdu_bytes, rate, second._airtime) is plan
        assert plan.duration_ns == data_frame_plan(msdu_bytes, rate, private).duration_ns
    assert first._ack_us == private.ack_us()
    assert first._cts_us == private.cts_us()
