"""Tests for MacParamsSpec and its threading through the builder."""

from __future__ import annotations

import pytest

from repro.core.params import Dot11bConfig, MacParameters
from repro.errors import ConfigurationError
from repro.mac.dcf import DEFAULT_QUEUE_FRAMES
from repro.parallel.cache import canonical_params
from repro.scenario import (
    FlowSpec,
    MacParamsSpec,
    ScenarioSpec,
    StackSpec,
    SweepAxis,
    SweepSpec,
    TopologySpec,
    TrafficSpec,
    apply_overrides,
    build,
    scenario_sweep_points,
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


def point_key(spec: ScenarioSpec) -> str:
    [point] = scenario_sweep_points([spec], extract="m:f")
    return canonical_params(point.params)


class TestVersion2Migration:
    """Version 2 spelled three MAC knobs on the stack; version 3 reads them."""

    @pytest.mark.parametrize(
        "v2_stack, v3_mac",
        [
            (
                {"short_retry_limit": 3, "long_retry_limit": 2},
                {"short_retry_limit": 3, "long_retry_limit": 2},
            ),
            (
                {"short_retry_limit": 3, "mac": {"cw_min_slots": 64}},
                {"short_retry_limit": 3, "cw_min_slots": 64},
            ),
            ({"mac_queue_frames": 5}, {"queue_frames": 5}),
            ({"mac_queue_frames": 200}, {}),
            (
                {"mac_queue_frames": 50, "mac": {"queue_frames": 5}},
                {"queue_frames": 5},
            ),
            ({"mac": None}, {}),
            (
                {
                    "short_retry_limit": None,
                    "long_retry_limit": None,
                    "mac_queue_frames": 200,
                    "mac": None,
                },
                {},
            ),
        ],
        ids=[
            "stack-retry-limits",
            "retry-limit-beside-mac",
            "queue-alone",
            "queue-at-default",
            "queue-beside-mac-queue",
            "mac-null",
            "v2-default-document",
        ],
    )
    def test_every_version_2_spelling_loads_as_its_version_3_form(
        self, v2_stack, v3_mac
    ):
        migrated = ScenarioSpec.from_dict(document(2, v2_stack))
        written = ScenarioSpec.from_dict(document(3, {"mac": v3_mac}))
        assert migrated.to_dict()["version"] == 3
        assert migrated.stack.dot11_config() == written.stack.dot11_config()
        assert (
            migrated.stack.effective_queue_frames
            == written.stack.effective_queue_frames
        )
        assert point_key(migrated) == point_key(written)

    def test_version_2_sweep_axes_move_with_their_keys(self):
        v2 = {
            "version": 2,
            "base": document(2, {"mac_queue_frames": 50}),
            "axes": [{"key": "stack.short_retry_limit", "values": [1, 7]}],
        }
        written = SweepSpec(
            base=ScenarioSpec.from_dict(document(3, {"mac": {"queue_frames": 50}})),
            axes=(SweepAxis("stack.mac.short_retry_limit", (1, 7)),),
        )
        migrated = SweepSpec.from_dict(v2)
        assert migrated.to_dict()["version"] == 3
        assert migrated == written
        for spec, twin in zip(migrated.expand(), written.expand(), strict=True):
            assert spec.stack.dot11_config() == twin.stack.dot11_config()
            assert spec.stack.effective_queue_frames == 50
            assert point_key(spec) == point_key(twin)

    def test_a_retry_limit_set_in_both_places_is_rejected(self):
        doc = document(2, {"short_retry_limit": 3, "mac": {"short_retry_limit": 5}})
        with pytest.raises(ConfigurationError, match="version-2 stack sets"):
            ScenarioSpec.from_dict(doc)
        sweep = {
            "version": 2,
            "base": document(2, {"mac": {"short_retry_limit": 5}}),
            "axes": [{"key": "stack.short_retry_limit", "values": [1, 7]}],
        }
        with pytest.raises(ConfigurationError, match="both spellings"):
            SweepSpec.from_dict(sweep)

    @pytest.mark.parametrize(
        "base_stack, axes, match",
        [
            (
                {},
                [("stack.short_retry_limit", [1]),
                 ("stack.mac.short_retry_limit", [2])],
                "both spellings",
            ),
            (
                {"mac": {"queue_frames": 5}},
                [("stack.mac_queue_frames", [10, 20])],
                "both spellings",
            ),
            (
                {},
                [("stack.mac.queue_frames", [5]),
                 ("stack.mac_queue_frames", [10])],
                "both spellings",
            ),
            (
                {"mac_queue_frames": 50},
                [("stack.mac", [{"cw_min_slots": 64}, None])],
                "stack.mac whole",
            ),
        ],
        ids=["two-retry-axes", "queue-axis-under-mac-queue",
             "two-queue-axes", "whole-mac-axis"],
    )
    def test_version_2_sweep_axes_that_cannot_move_are_rejected(
        self, base_stack, axes, match
    ):
        # Version 2 rejected or ignored each of these; a renamed axis
        # would silently win instead.
        sweep = {
            "version": 2,
            "base": document(2, base_stack),
            "axes": [{"key": key, "values": values} for key, values in axes],
        }
        with pytest.raises(ConfigurationError, match=match):
            SweepSpec.from_dict(sweep)

    def test_version_1_documents_are_rejected(self):
        with pytest.raises(
            ConfigurationError, match="reads version 3 and migrates version 2"
        ):
            ScenarioSpec.from_dict(document(1, {}))

    @pytest.mark.parametrize(
        "key", ["short_retry_limit", "long_retry_limit", "mac_queue_frames"]
    )
    def test_version_3_documents_reject_the_moved_keys(self, key):
        with pytest.raises(ConfigurationError, match=f"unknown stack key.*{key}"):
            ScenarioSpec.from_dict(document(3, {key: 1}))
