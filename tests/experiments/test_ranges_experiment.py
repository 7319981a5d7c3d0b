"""Tests for the range experiments (Figures 3-4, Table 3)."""

import pytest

from repro.core.params import Rate
from repro.experiments.ranges import (
    LossCurve,
    estimate_tx_range,
    format_loss_curves,
    format_table3,
    loss_spec,
    run_figure4,
    run_loss_sweep,
)
from repro.scenario import scenario_point

PROBE_LOSS = "repro.experiments.ranges:probe_loss"


def loss_at(distance_m, probes):
    """Per-frame loss at 11 Mbps over one two-station probe cell."""
    spec = loss_spec(11.0, distance_m, probes, seed=1)
    return scenario_point(spec.to_dict(), extract=PROBE_LOSS)


class TestMeasureLoss:
    def test_close_link_is_lossless(self):
        assert loss_at(10.0, probes=50) == 0.0

    def test_far_link_loses_everything(self):
        assert loss_at(120.0, probes=50) == 1.0

    def test_edge_of_range_is_partial(self):
        loss = loss_at(31.0, probes=120)
        assert 0.1 < loss < 0.9


class TestLossSweep:
    @pytest.fixture(scope="class")
    def curve_11(self):
        return run_loss_sweep(
            Rate.MBPS_11, tuple(range(20, 61, 10)), probes=80, seed=5
        )

    def test_curve_is_roughly_monotone(self, curve_11):
        # Allow small sampling wiggle but require the trend.
        losses = curve_11.loss_rates
        assert losses[0] < 0.2
        assert losses[-1] > 0.9
        for earlier, later in zip(losses, losses[2:]):
            assert later >= earlier - 0.15

    def test_estimate_in_table3_band(self, curve_11):
        assert 25.0 <= estimate_tx_range(curve_11) <= 36.0

    def test_estimate_edge_cases(self):
        all_lost = LossCurve("x", Rate.MBPS_11, (10.0, 20.0), (0.9, 1.0))
        assert estimate_tx_range(all_lost) == 10.0
        all_fine = LossCurve("x", Rate.MBPS_11, (10.0, 20.0), (0.0, 0.1))
        assert estimate_tx_range(all_fine) == 20.0
        flat_cross = LossCurve("x", Rate.MBPS_11, (10.0, 20.0), (0.5, 0.5))
        assert estimate_tx_range(flat_cross) == 10.0

    def test_interpolation_between_samples(self):
        curve = LossCurve("x", Rate.MBPS_11, (10.0, 20.0), (0.25, 0.75))
        assert estimate_tx_range(curve) == pytest.approx(15.0)


class TestFigure4:
    def test_bad_day_shifts_curve_left(self):
        distances = tuple(range(90, 141, 10))
        good, bad = run_figure4(probes=80, seed=5, distances_m=distances)
        assert estimate_tx_range(bad) < estimate_tx_range(good)

    def test_formatting(self):
        distances = (100.0, 120.0)
        curves = run_figure4(probes=20, seed=5, distances_m=distances)
        text = format_loss_curves(curves, "Figure 4")
        assert "2002-12-06" in text
        assert "2002-12-09" in text


class TestTable3Formatting:
    def test_format_includes_bands(self):
        from repro.experiments.ranges import RangeEstimate

        rows = [
            RangeEstimate(Rate.MBPS_11, "data", 31.0, (25.0, 35.0)),
            RangeEstimate(Rate.MBPS_2, "control", 120.0, (85.0, 100.0)),
        ]
        text = format_table3(rows)
        assert "25-35" in text
        assert "NO" in text  # the out-of-band row is flagged
