"""Tests for the Table-1 parameter sets.

This file is the golden table: every IEEE 802.11b value of the paper's
Table 1 that ``core/params.py`` declares is asserted here, in the
repo's own conventions, against the constructed objects.
"""

import pytest

from repro.core.params import (
    ALL_RATES,
    BASIC_RATE_SET,
    Dot11bConfig,
    HeaderRatePolicy,
    MacParameters,
    PlcpParameters,
    PlcpPreamble,
    Rate,
)
from repro.errors import ConfigurationError


class TestRate:
    def test_the_four_80211b_rates_exist(self):
        assert [r.mbps for r in ALL_RATES] == [1.0, 2.0, 5.5, 11.0]

    def test_bps_matches_mbps(self):
        assert Rate.MBPS_11.bps == 11e6
        assert Rate.MBPS_5_5.bps == 5.5e6

    def test_from_mbps_round_trips(self):
        for rate in ALL_RATES:
            assert Rate.from_mbps(rate.mbps) is rate

    def test_from_mbps_rejects_non_80211b_rate(self):
        with pytest.raises(ConfigurationError):
            Rate.from_mbps(54.0)

    def test_basic_rate_set_is_1_and_2_mbps(self):
        # Control frames must use the basic rate set.
        assert BASIC_RATE_SET == (Rate.MBPS_1, Rate.MBPS_2)


class TestPlcpParameters:
    def test_long_plcp_is_192_us(self):
        # Table 1: PHYhdr = 192 bits at 1 Mbps = 192 us (9.6 slots).
        assert PlcpParameters.long().duration_us == pytest.approx(192.0)

    def test_long_plcp_is_9_6_slots(self):
        mac = MacParameters()
        slots = PlcpParameters.long().duration_us / mac.slot_time_us
        assert slots == pytest.approx(9.6)

    def test_short_plcp_is_96_us(self):
        assert PlcpParameters.short().duration_us == pytest.approx(96.0)

    def test_plcp_fields_match_table1(self):
        # Long: a 144-bit preamble and a 48-bit header, both at 1 Mb/s,
        # 192 us in total: the paper's PHYhdr.
        long = PlcpParameters.long()
        assert long.preamble_bits == 144
        assert long.preamble_rate is Rate.MBPS_1
        assert long.header_bits == 48
        assert long.header_rate is Rate.MBPS_1
        # Short: a 72-bit preamble at 1 Mb/s and a 48-bit header at
        # 2 Mb/s, 96 us in total.
        short = PlcpParameters.short()
        assert short.preamble_bits == 72
        assert short.preamble_rate is Rate.MBPS_1
        assert short.header_bits == 48
        assert short.header_rate is Rate.MBPS_2

    def test_for_preamble_dispatches(self):
        assert PlcpParameters.for_preamble(PlcpPreamble.LONG).duration_us == 192.0
        assert PlcpParameters.for_preamble(PlcpPreamble.SHORT).duration_us == 96.0


class TestMacParameters:
    def test_table1_default_values(self):
        mac = MacParameters()
        assert mac.slot_time_us == 20.0
        assert mac.sifs_us == 10.0
        assert mac.difs_us == 50.0
        # cw_min_slots = 32 means backoffs are drawn from {0, ..., 31};
        # the standard's aCWmin = 31 names the same window by its
        # largest draw.  Likewise cw_max_slots = 1024 is aCWmax = 1023.
        assert mac.cw_min_slots == 32
        assert mac.cw_max_slots == 1024
        assert mac.mac_header_bits == 272  # 4-address MAC header + FCS: 34 bytes
        assert mac.ack_bits == 112  # 14-byte ACK
        assert mac.rts_bits == 160  # 20-byte RTS
        assert mac.cts_bits == 112  # 14-byte CTS
        assert mac.short_retry_limit == 7
        assert mac.long_retry_limit == 4
        assert mac.propagation_delay_us == 1.0

    def test_difs_is_sifs_plus_two_slots(self):
        mac = MacParameters()
        assert mac.difs_us == mac.sifs_us + 2 * mac.slot_time_us

    def test_mean_initial_backoff_is_15_5_slots(self):
        # This value (310 us) is what reproduces Table 2 exactly.
        assert MacParameters().mean_initial_backoff_us == pytest.approx(310.0)

    def test_eifs_uses_lowest_rate_ack(self):
        mac = MacParameters()
        plcp = PlcpParameters.long()
        # EIFS = SIFS + DIFS + (PLCP + 112 bits @ 1 Mbps) = 10+50+304 = 364.
        assert mac.eifs_us(plcp) == pytest.approx(364.0)

    def test_rejects_inverted_contention_window(self):
        with pytest.raises(ConfigurationError):
            MacParameters(cw_min_slots=64, cw_max_slots=32)

    def test_rejects_difs_smaller_than_sifs(self):
        with pytest.raises(ConfigurationError):
            MacParameters(sifs_us=50.0, difs_us=10.0)


class TestHeaderRatePolicy:
    def test_paper_policy_caps_header_at_2_mbps(self):
        policy = HeaderRatePolicy.PAPER_BASIC_RATE
        assert policy.header_rate(Rate.MBPS_11) is Rate.MBPS_2
        assert policy.header_rate(Rate.MBPS_5_5) is Rate.MBPS_2
        assert policy.header_rate(Rate.MBPS_2) is Rate.MBPS_2
        assert policy.header_rate(Rate.MBPS_1) is Rate.MBPS_1

    def test_data_rate_policy_uses_data_rate(self):
        policy = HeaderRatePolicy.DATA_RATE
        for rate in ALL_RATES:
            assert policy.header_rate(rate) is rate


class TestDot11bConfig:
    def test_default_control_rate_is_2_mbps(self):
        assert Dot11bConfig().control_rate is Rate.MBPS_2

    def test_control_rate_must_be_basic(self):
        with pytest.raises(ConfigurationError):
            Dot11bConfig(control_rate=Rate.MBPS_11)

    def test_control_rate_for_caps_by_data_rate(self):
        config = Dot11bConfig()
        assert config.control_rate_for(Rate.MBPS_1) is Rate.MBPS_1
        assert config.control_rate_for(Rate.MBPS_11) is Rate.MBPS_2
