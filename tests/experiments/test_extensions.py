"""Tests for the extension experiments: delay, replication, ARF sweep."""

import pytest

from repro.core.params import Rate
from repro.errors import ExperimentError
from repro.experiments.delay import format_delay_sweep, run_delay_sweep
from repro.experiments.ratecontrol import format_arf_sweep, run_arf_sweep
from repro.experiments.replication import replicate, seeds_for


class TestDelaySweep:
    def test_light_load_has_low_delay(self):
        points = run_delay_sweep(
            rate=Rate.MBPS_11, load_fractions=(0.3,), duration_s=1.0,
            warmup_s=0.2,
        )
        assert points[0].mean_delay_s < 0.005
        assert points[0].p99_delay_s < 0.01

    def test_overload_has_high_delay_and_clipped_delivery(self):
        points = run_delay_sweep(
            rate=Rate.MBPS_11, load_fractions=(1.2,), duration_s=2.0,
            warmup_s=0.5,
        )
        point = points[0]
        assert point.mean_delay_s > 0.02
        assert point.delivered_bps < point.offered_bps

    def test_formatting(self):
        points = run_delay_sweep(
            rate=Rate.MBPS_2, load_fractions=(0.5,), duration_s=0.5,
            warmup_s=0.1,
        )
        text = format_delay_sweep(points, Rate.MBPS_2)
        assert "delay" in text and "2 Mbps" in text


class TestReplication:
    def test_deterministic_metric_has_zero_width(self):
        summary = replicate(lambda seed: 42.0, replications=4)
        assert summary.mean == 42.0
        assert summary.half_width == 0.0
        assert summary.count == 4

    def test_seed_dependent_metric_gets_distinct_seeds(self):
        seen = []
        replicate(lambda seed: seen.append(seed) or float(seed), replications=3)
        assert len(set(seen)) == 3

    def test_seeds_are_disjoint_across_base_seeds(self):
        a = set(seeds_for(5, base_seed=1))
        b = set(seeds_for(5, base_seed=2))
        assert not (a & b)

    def test_zero_replications_rejected(self):
        with pytest.raises(ExperimentError):
            replicate(lambda seed: 0.0, replications=0)

    def test_replicated_simulation_metric(self):
        """Replicating a real (tiny) simulation yields a tight CI."""
        from repro.apps.cbr import CbrSource
        from repro.apps.sink import UdpSink
        from repro.scenario import build_network

        def throughput(seed: int) -> float:
            net = build_network([0, 10], data_rate=Rate.MBPS_11, seed=seed)
            sink = UdpSink(net[1], port=5001, warmup_s=0.2)
            CbrSource(net[0], dst=2, dst_port=5001, payload_bytes=512)
            net.run(1.0)
            return sink.throughput_bps(1.0) / 1e6

        summary = replicate(throughput, replications=3)
        assert summary.mean == pytest.approx(3.05, abs=0.1)
        assert summary.half_width < 0.2


class TestArfSweep:
    def test_single_distance_row(self):
        rows = run_arf_sweep(distances_m=(10.0,), duration_s=1.0, warmup_s=0.2)
        assert len(rows) == 1
        assert rows[0].arf_mbps > 0.5 * rows[0].best_fixed_mbps

    def test_formatting(self):
        rows = run_arf_sweep(distances_m=(10.0,), duration_s=0.5, warmup_s=0.1)
        text = format_arf_sweep(rows)
        assert "ARF" in text
