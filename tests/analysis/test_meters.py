"""Tests for the measurement meters."""

import pytest

from repro.analysis.meters import DelayMeter, LossMeter, ThroughputMeter
from repro.errors import ConfigurationError


class TestThroughputMeter:
    def test_counts_bytes_over_window(self):
        meter = ThroughputMeter()
        meter.record_ns(1000, 500_000_000)
        meter.record_ns(1000, 1_000_000_000)
        assert meter.throughput_bps(2.0) == pytest.approx(2000 * 8 / 2.0)

    def test_warmup_excludes_early_bytes(self):
        meter = ThroughputMeter(warmup_s=1.0)
        meter.record_ns(5000, 500_000_000)  # dropped
        meter.record_ns(1000, 1_500_000_000)
        assert meter.bytes == 1000
        assert meter.throughput_bps(2.0) == pytest.approx(8000.0)

    def test_defaults_to_last_record_time(self):
        meter = ThroughputMeter()
        meter.record_ns(1000, 4_000_000_000)
        assert meter.throughput_bps() == pytest.approx(2000.0)

    def test_empty_window_is_zero(self):
        meter = ThroughputMeter(warmup_s=1.0)
        assert meter.throughput_bps(0.5) == 0.0

    def test_negative_warmup_rejected(self):
        with pytest.raises(ConfigurationError):
            ThroughputMeter(warmup_s=-1.0)

    def test_warmup_boundary_is_inclusive(self):
        # A delivery at exactly t == warmup must count: every sink gates
        # with `now >= warmup`, and the meter must agree with the sinks.
        meter = ThroughputMeter(warmup_s=1.0)
        assert meter.warmup_ns == 1_000_000_000
        meter.record_ns(100, 999_999_999)  # one ns early: dropped
        assert meter.bytes == 0
        meter.record_ns(100, 1_000_000_000)  # exactly on the boundary
        assert meter.bytes == 100
        meter.record_ns(100, 1_000_000_001)
        assert meter.bytes == 200


class TestLossMeter:
    def test_loss_rate(self):
        meter = LossMeter()
        meter.record_sent(10)
        meter.record_received(7)
        assert meter.loss_rate == pytest.approx(0.3)

    def test_no_traffic_means_no_loss(self):
        assert LossMeter().loss_rate == 0.0

    def test_more_received_than_sent_clamps(self):
        meter = LossMeter()
        meter.record_sent(1)
        meter.record_received(2)  # duplicates can inflate this
        assert meter.loss_rate == 0.0

    def test_ns_entry_points_pin_the_window(self):
        meter = LossMeter()
        meter.record_sent_ns(2_000_000)
        meter.record_sent_ns(1_000_000)
        meter.record_received_ns(5_000_000)
        meter.record_received_ns(3_000_000)
        assert meter.sent == 2
        assert meter.received == 2
        assert meter.first_sent_ns == 1_000_000
        assert meter.last_received_ns == 5_000_000
        assert meter.loss_rate == 0.0


class TestDelayMeter:
    def test_mean_and_max(self):
        meter = DelayMeter()
        meter.record(0.0, 0.010)
        meter.record(1.0, 1.030)
        assert meter.count == 2
        assert meter.mean_s == pytest.approx(0.020)
        assert meter.max_s == pytest.approx(0.030)

    def test_percentile(self):
        meter = DelayMeter()
        for index in range(100):
            meter.record(0.0, (index + 1) / 1000)
        assert meter.percentile_s(0.5) == pytest.approx(0.050, abs=0.002)
        assert meter.percentile_s(1.0) == pytest.approx(0.100)

    def test_warmup_trims_samples(self):
        meter = DelayMeter(warmup_s=1.0)
        meter.record(0.0, 0.5)  # before warmup: ignored
        meter.record(1.0, 1.5)
        assert meter.count == 1

    def test_time_travel_rejected(self):
        with pytest.raises(ConfigurationError):
            DelayMeter().record(1.0, 0.5)

    def test_bad_percentile_rejected(self):
        with pytest.raises(ConfigurationError):
            DelayMeter().percentile_s(1.5)

    def test_empty_percentile_is_zero(self):
        assert DelayMeter().percentile_s(0.5) == 0.0
