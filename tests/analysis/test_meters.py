"""Tests for the delay meter."""

import pytest

from repro.analysis.meters import DelayMeter
from repro.errors import ConfigurationError


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
