"""Tests for MacParamsSpec and its threading through the builder."""

from __future__ import annotations

import pytest

from repro.core.params import Dot11bConfig, MacParameters
from repro.errors import ConfigurationError
from repro.mac.dcf import DEFAULT_QUEUE_FRAMES
from repro.scenario import (
    FlowSpec,
    MacParamsSpec,
    ScenarioSpec,
    StackSpec,
    SweepSpec,
    TopologySpec,
    TrafficSpec,
    apply_overrides,
    build,
)


def two_node_spec(stack: StackSpec) -> ScenarioSpec:
    return ScenarioSpec(
        name="mac-params",
        topology=TopologySpec.line(0, 10, fast_sigma_db=0.0),
        stack=stack,
        traffic=TrafficSpec(
            flows=(FlowSpec(kind="cbr", src=0, dst=1, payload_bytes=512),)
        ),
        seed=1,
        duration_s=0.2,
    )


class TestSpecValidation:
    def test_empty_spec_means_table1_defaults(self):
        spec = MacParamsSpec()
        assert spec.to_mac_parameters() == MacParameters()
        assert spec.effective_queue_frames == DEFAULT_QUEUE_FRAMES

    def test_round_trips_through_dict(self):
        spec = MacParamsSpec(
            cw_min_slots=64, slot_time_us=9.0, queue_frames=10
        )
        assert MacParamsSpec.from_dict(spec.to_dict()) == spec

    def test_inconsistent_windows_fail_at_construction(self):
        with pytest.raises(ConfigurationError, match="CWmin"):
            MacParamsSpec(cw_min_slots=2048)  # above the default CWmax

    def test_bounds_are_validated(self):
        with pytest.raises(ConfigurationError):
            MacParamsSpec(cw_min_slots=0)
        with pytest.raises(ConfigurationError):
            MacParamsSpec(short_retry_limit=-1)
        with pytest.raises(ConfigurationError):
            MacParamsSpec(slot_time_us=0.0)
        with pytest.raises(ConfigurationError):
            MacParamsSpec(queue_frames=True)

    def test_difs_follows_the_standard_identity(self):
        # DIFS = SIFS + 2 x slot whenever timing moves and DIFS is not
        # pinned explicitly.
        mac = MacParamsSpec(slot_time_us=9.0).to_mac_parameters()
        assert mac.difs_us == pytest.approx(10.0 + 2 * 9.0)
        mac = MacParamsSpec(sifs_us=16.0).to_mac_parameters()
        assert mac.difs_us == pytest.approx(16.0 + 2 * 20.0)

    def test_explicit_difs_wins(self):
        mac = MacParamsSpec(slot_time_us=9.0, difs_us=40.0).to_mac_parameters()
        assert mac.difs_us == 40.0


class TestStackIntegration:
    def test_default_stack_produces_no_config(self):
        # Critical for golden stability: no overrides -> build() sees
        # exactly the default config it saw before MacParamsSpec existed.
        assert StackSpec().mac == MacParamsSpec()
        assert StackSpec().dot11_config() == Dot11bConfig()
        assert StackSpec().effective_queue_frames == DEFAULT_QUEUE_FRAMES
        assert StackSpec().to_dict()["mac"] == MacParamsSpec().to_dict()

    def test_mac_paths_work_on_a_spec_written_without_mac(self):
        spec = two_node_spec(StackSpec())
        pinned = apply_overrides(spec, {"stack.mac.queue_frames": 5})
        assert pinned.stack.effective_queue_frames == 5
        pinned = apply_overrides(spec, {"stack.mac.short_retry_limit": 0})
        assert pinned.stack.dot11_config().mac.short_retry_limit == 0

    def test_stack_round_trips_with_mac_spec(self):
        stack = StackSpec(mac=MacParamsSpec(cw_min_slots=64, sifs_us=16.0))
        spec = two_node_spec(stack)
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.stack.mac == stack.mac


class TestBuilderThreading:
    def test_overrides_reach_every_station(self):
        spec = two_node_spec(
            StackSpec(
                mac=MacParamsSpec(
                    cw_min_slots=64, slot_time_us=9.0, queue_frames=7
                )
            )
        )
        net = build(spec)
        for node in net.nodes:
            mac = node.mac.config.dot11.mac
            assert mac.cw_min_slots == 64
            assert mac.slot_time_us == 9.0
            assert mac.difs_us == pytest.approx(10.0 + 2 * 9.0)
            assert node.mac.config.max_queue_frames == 7

    def test_default_build_matches_pre_mac_spec_constants(self):
        net = build(two_node_spec(StackSpec()))
        assert net.nodes[0].mac.config.dot11.mac == MacParameters()

    def test_overrides_change_measured_behaviour(self):
        # A huge CWmin visibly slows a single saturated sender: the
        # override is live in the MAC, not just carried in the spec.
        fast = two_node_spec(StackSpec(mac=MacParamsSpec(cw_min_slots=16)))
        slow = two_node_spec(StackSpec(mac=MacParamsSpec(cw_min_slots=1024)))
        results = []
        for spec in (fast, slow):
            net = build(spec)
            net.run(spec.duration_s)
            results.append(net.flow(0).throughput_bps(spec.duration_s))
        assert results[0] > results[1] * 1.5


def document(version: int, stack: dict) -> dict:
    """The two-node scenario as a ``version`` document with ``stack``."""
    doc = two_node_spec(StackSpec()).to_dict()
    return {**doc, "version": version, "stack": stack}


class TestVersion2Migration:
    """Version 2 spelled three MAC knobs on the stack; version 3 rejects
    an older document and names the moves, which are made by hand."""

    @pytest.mark.parametrize("reader", [ScenarioSpec, SweepSpec])
    def test_version_2_documents_are_rejected_naming_the_moves(self, reader):
        doc = document(2, {"short_retry_limit": 3, "mac_queue_frames": 5})
        if reader is SweepSpec:
            doc = {"version": 2, "base": doc, "axes": []}
        with pytest.raises(ConfigurationError) as error:
            reader.from_dict(doc)
        message = str(error.value)
        assert "version 2" in message
        for old, new in [
            ("stack.short_retry_limit", "stack.mac.short_retry_limit"),
            ("stack.long_retry_limit", "stack.mac.long_retry_limit"),
            ("stack.mac_queue_frames", "stack.mac.queue_frames"),
        ]:
            assert old in message and new in message

    def test_version_1_documents_are_rejected(self):
        with pytest.raises(ConfigurationError, match="reads version 3 only"):
            ScenarioSpec.from_dict(document(1, {}))

    @pytest.mark.parametrize(
        "key", ["short_retry_limit", "long_retry_limit", "mac_queue_frames"]
    )
    def test_version_3_documents_reject_the_moved_keys(self, key):
        with pytest.raises(ConfigurationError, match=f"unknown stack key.*{key}"):
            ScenarioSpec.from_dict(document(3, {key: 1}))
