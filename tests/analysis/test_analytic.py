"""Tests for the closed-form DCF model."""

from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from repro.analysis.analytic import (
    collision_overhead_us,
    contention_windows,
    jain_index,
    predict_scenario,
    retry_limited_tau,
    saturation_throughput,
    solve_fixed_point,
)
from repro.core.params import ALL_RATES, Dot11bConfig, MacParameters, Rate
from repro.core.throughput_model import ThroughputModel
from repro.errors import ConfigurationError


class TestContentionWindows:
    def test_doubling_schedule_clamps_at_cw_max(self):
        assert contention_windows(32, 1024, 7) == (
            32, 64, 128, 256, 512, 1024, 1024, 1024,
        )

    def test_zero_retries_is_a_single_stage(self):
        assert contention_windows(32, 1024, 0) == (32,)

    def test_invalid_windows_rejected(self):
        with pytest.raises(ConfigurationError):
            contention_windows(0, 1024, 7)
        with pytest.raises(ConfigurationError):
            contention_windows(64, 32, 7)
        with pytest.raises(ConfigurationError):
            contention_windows(32, 1024, -1)


class TestTau:
    def test_no_collisions_is_the_textbook_value(self):
        # p = 0: only stage 0, tau = 2 / (W + 1).
        assert retry_limited_tau(0.0, 32, 1024, 7) == pytest.approx(2 / 33)

    def test_matches_bianchi_infinite_retry_limit(self):
        # Bianchi Eq. (7) with m backoff stages; a huge retry limit
        # must converge to it.
        p, w, m = 0.2, 32, 5
        bianchi = (2 * (1 - 2 * p)) / (
            (1 - 2 * p) * (w + 1) + p * w * (1 - (2 * p) ** m)
        )
        ours = retry_limited_tau(p, w, w * 2**m, 400)
        assert ours == pytest.approx(bianchi, rel=1e-9)

    def test_tau_decreases_with_collision_probability(self):
        taus = [retry_limited_tau(p, 32, 1024, 7) for p in (0.0, 0.2, 0.5)]
        assert taus == sorted(taus, reverse=True)

    def test_invalid_p_rejected(self):
        with pytest.raises(ConfigurationError):
            retry_limited_tau(1.0, 32, 1024, 7)


class TestFixedPoint:
    def test_single_station_never_collides(self):
        tau, p = solve_fixed_point(1, 32, 1024, 7)
        assert p == 0.0
        assert tau == pytest.approx(2 / 33)

    def test_solution_is_consistent(self):
        for stations in (2, 5, 10):
            tau, p = solve_fixed_point(stations, 32, 1024, 7)
            assert p == pytest.approx(1 - (1 - tau) ** (stations - 1), abs=1e-9)

    @given(stations=st.integers(min_value=2, max_value=99))
    def test_collision_probability_grows_with_stations(self, stations):
        # Together with the single-station case this keeps (tau, p) in
        # range for n = 1..100, with tau falling as p rises.
        tau_small, p_small = solve_fixed_point(stations, 32, 1024, 7)
        tau_large, p_large = solve_fixed_point(stations + 1, 32, 1024, 7)
        assert 0.0 < p_small < p_large < 1.0
        assert 0.0 < tau_large < tau_small < 1.0

    def test_zero_stations_rejected(self):
        with pytest.raises(ConfigurationError):
            solve_fixed_point(0, 32, 1024, 7)


class TestSaturationThroughput:
    def test_single_station_equals_the_zero_contention_bound(self):
        # With n = 1 the Bianchi slot expectation collapses to exactly
        # the Eq. 1/2 overhead accounting (DIFS + frame + SIFS + ACK +
        # mean initial backoff), so the two models must agree.
        prediction = saturation_throughput(1, app_payload_bytes=1024)
        assert prediction.efficiency == pytest.approx(1.0)
        # That bound is the paper's Equation (1), at every 802.11b rate.
        for rate in ALL_RATES:
            single = saturation_throughput(1, 512, rate).throughput_bps
            equation_1 = ThroughputModel().max_throughput_bps(512, rate)
            assert single == pytest.approx(equation_1)

    def test_throughput_degrades_with_contention(self):
        # Collisions erode throughput monotonically once more than one
        # station contends (n=2 can sit slightly *above* n=1, which
        # idles the full mean backoff unshared).
        points = [
            saturation_throughput(n, app_payload_bytes=1024).throughput_bps
            for n in (2, 5, 10, 20)
        ]
        assert points == sorted(points, reverse=True)
        assert 0.0 < points[-1] and points[0] < Rate.MBPS_11.bps

    def test_larger_cw_min_helps_under_heavy_contention(self):
        crowded = Dot11bConfig(mac=MacParameters(cw_min_slots=256))
        assert (
            saturation_throughput(20, config=crowded).throughput_bps
            > saturation_throughput(20).throughput_bps
        )

    def test_drop_probability_follows_the_retry_limit(self):
        eager = saturation_throughput(10, retry_limit=0)
        patient = saturation_throughput(10, retry_limit=7)
        assert eager.drop_probability == pytest.approx(
            eager.collision_probability
        )
        assert patient.drop_probability < eager.drop_probability

    def test_collision_overhead_models(self):
        config = Dot11bConfig()
        sim = collision_overhead_us(config, "sim")
        difs = collision_overhead_us(config, "difs")
        # Defaults: EIFS (364 us) dominates the ack-timeout + DIFS path.
        assert sim == pytest.approx(config.mac.eifs_us(config.plcp))
        assert difs == config.mac.difs_us
        with pytest.raises(ConfigurationError):
            collision_overhead_us(config, "nonsense")
        # Bianchi's classic shape with the cheap DIFS collision cost:
        # two stations waste fewer idle slots than one, and by 16
        # collisions cost more than that saves.
        classic = {
            n: saturation_throughput(n, collision_model="difs").throughput_bps
            for n in (1, 2, 4, 16)
        }
        assert classic[2] > classic[1]
        assert classic[16] < classic[4]


class TestPredictScenario:
    def test_uses_the_spec_mac_overrides(self):
        from repro.experiments.mac_surface import saturation_spec
        from repro.scenario import apply_overrides

        default = predict_scenario(saturation_spec(5))
        wide = predict_scenario(
            apply_overrides(saturation_spec(5), {"stack.mac.cw_min_slots": 256})
        )
        assert wide.collision_probability < default.collision_probability

    def test_rejects_paced_flows(self):
        from repro.experiments.mac_surface import saturation_spec
        from repro.scenario import ScenarioSpec

        doc = saturation_spec(2).to_dict()
        doc["traffic"]["flows"][0]["rate_bps"] = 1e6
        with pytest.raises(ConfigurationError, match="saturated"):
            predict_scenario(ScenarioSpec.from_dict(doc))

    def test_rejects_empty_traffic(self):
        from repro.experiments.mac_surface import saturation_spec
        from repro.scenario import ScenarioSpec

        doc = saturation_spec(2).to_dict()
        doc["traffic"]["flows"] = []
        with pytest.raises(ConfigurationError, match="no flows"):
            predict_scenario(ScenarioSpec.from_dict(doc))


class TestJainIndex:
    def test_perfect_fairness(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_hog(self):
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_all_zero_is_fair(self):
        assert jain_index([0.0, 0.0]) == 1.0

    def test_tiny_shares_do_not_underflow(self):
        assert jain_index([1e-170, 0.0]) == 0.5

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            jain_index([])
        with pytest.raises(ConfigurationError):
            jain_index([1.0, -1.0])

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=20,
        )
    )
    # Rounds to 0.19999999999999998, a hair below 1/5: both bounds
    # need the same float slack.
    @example([0.0, 0.0, 0.0, 0.0, 1.9])
    # Squares of these underflow into subnormals.
    @example([2.303e-162] * 3)
    def test_always_in_the_unit_interval(self, values):
        index = jain_index(values)
        assert 1.0 / len(values) - 1e-9 <= index <= 1.0 + 1e-9
