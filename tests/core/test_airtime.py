"""Tests for the frame airtime calculator, including hypothesis properties."""

import pytest
from hypothesis import given, strategies as st

from repro.core.airtime import AirtimeCalculator, shared_calculator
from repro.core.params import (
    ALL_RATES,
    Dot11bConfig,
    HeaderRatePolicy,
    PlcpParameters,
    Rate,
)
from repro.errors import ConfigurationError


@pytest.fixture
def calc():
    return AirtimeCalculator()


class TestControlFrames:
    def test_ack_at_2_mbps_is_248_us(self, calc):
        # PLCP (192) + 112 bits / 2 Mbps (56) — the paper's T_ACK.
        assert calc.ack_us() == pytest.approx(248.0)

    def test_rts_at_2_mbps_is_272_us(self, calc):
        assert calc.rts_us() == pytest.approx(272.0)

    def test_cts_at_2_mbps_is_248_us(self, calc):
        assert calc.cts_us() == pytest.approx(248.0)

    def test_control_rate_override(self, calc):
        assert calc.ack_us(Rate.MBPS_1) == pytest.approx(192.0 + 112.0)

    def test_control_at_1_mbps_config(self):
        config = Dot11bConfig(control_rate=Rate.MBPS_1)
        calc = AirtimeCalculator(config)
        assert calc.rts_us() == pytest.approx(192.0 + 160.0)


class TestDataFrames:
    def test_paper_header_rate_at_11_mbps(self, calc):
        # 540-byte MSDU at 11 Mbps: header 272 bits @ 2 Mbps = 136 us,
        # payload 4320 bits @ 11 Mbps, PLCP 192 us.
        frame = calc.data_frame(540, Rate.MBPS_11)
        assert frame.plcp_us == pytest.approx(192.0)
        assert frame.header_us == pytest.approx(136.0)
        assert frame.payload_us == pytest.approx(4320 / 11)

    def test_standard_policy_sends_header_at_data_rate(self):
        config = Dot11bConfig(header_rate_policy=HeaderRatePolicy.DATA_RATE)
        calc = AirtimeCalculator(config)
        frame = calc.data_frame(540, Rate.MBPS_11)
        assert frame.header_us == pytest.approx(272 / 11)

    def test_at_1_mbps_header_goes_at_1_mbps(self, calc):
        frame = calc.data_frame(540, Rate.MBPS_1)
        assert frame.header_us == pytest.approx(272.0)

    def test_total_is_sum_of_parts(self, calc):
        frame = calc.data_frame(100, Rate.MBPS_2)
        assert frame.total_us == pytest.approx(
            frame.plcp_us + frame.header_us + frame.payload_us
        )

    def test_short_plcp_reduces_airtime(self):
        long_calc = AirtimeCalculator(Dot11bConfig(plcp=PlcpParameters.long()))
        short_calc = AirtimeCalculator(Dot11bConfig(plcp=PlcpParameters.short()))
        diff = long_calc.data_frame_us(540, Rate.MBPS_11) - short_calc.data_frame_us(
            540, Rate.MBPS_11
        )
        assert diff == pytest.approx(96.0)

    def test_negative_payload_rejected(self, calc):
        with pytest.raises(ConfigurationError):
            calc.data_frame(-1, Rate.MBPS_2)

    def test_payload_only_us(self, calc):
        assert calc.payload_only_us(512, Rate.MBPS_11) == pytest.approx(4096 / 11)

    def test_payload_only_rejects_negative(self, calc):
        with pytest.raises(ConfigurationError):
            calc.payload_only_us(-5, Rate.MBPS_2)


class TestAirtimeProperties:
    @given(
        payload=st.integers(min_value=0, max_value=2346),
        rate=st.sampled_from(ALL_RATES),
    )
    def test_airtime_positive_and_at_least_plcp(self, payload, rate):
        calc = AirtimeCalculator()
        assert calc.data_frame_us(payload, rate) >= calc.plcp_us()

    @given(
        smaller=st.integers(min_value=0, max_value=1000),
        delta=st.integers(min_value=1, max_value=1000),
        rate=st.sampled_from(ALL_RATES),
    )
    def test_airtime_monotone_in_payload(self, smaller, delta, rate):
        calc = AirtimeCalculator()
        assert calc.data_frame_us(smaller + delta, rate) > calc.data_frame_us(
            smaller, rate
        )

    @given(
        payload=st.integers(min_value=0, max_value=2346),
        slow=st.sampled_from(ALL_RATES),
        fast=st.sampled_from(ALL_RATES),
    )
    def test_airtime_antitone_in_rate(self, payload, slow, fast):
        calc = AirtimeCalculator()
        if slow.mbps >= fast.mbps:
            slow, fast = fast, slow
        if slow is fast:
            return
        assert calc.data_frame_us(payload, fast) <= calc.data_frame_us(payload, slow)

    @given(
        a=st.integers(min_value=0, max_value=1000),
        b=st.integers(min_value=0, max_value=1000),
        rate=st.sampled_from(ALL_RATES),
    )
    def test_payload_airtime_is_linear(self, a, b, rate):
        calc = AirtimeCalculator()
        fixed = calc.data_frame_us(0, rate)
        combined = calc.data_frame_us(a + b, rate)
        separate = calc.data_frame_us(a, rate) + calc.data_frame_us(b, rate) - fixed
        assert combined == pytest.approx(separate)


class TestSharedCalculator:
    def test_equal_configs_share_one_calculator(self):
        first = shared_calculator(Dot11bConfig())
        assert shared_calculator(Dot11bConfig()) is first
        assert first.config == Dot11bConfig()

    def test_distinct_configs_get_distinct_calculators(self):
        long_calc = shared_calculator(Dot11bConfig())
        short_calc = shared_calculator(Dot11bConfig(plcp=PlcpParameters.short()))
        assert short_calc is not long_calc
        assert short_calc.config.plcp == PlcpParameters.short()
