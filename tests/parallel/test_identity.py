"""Acceptance: parallel and cached sweeps are bit-identical to serial.

The engine's whole contract is that ``--jobs N`` and a warm cache are
pure wall-clock optimisations: the two-node UDP delivery trace, the
loss curves and the rendered tables must not change by a single byte.
"""

import pytest

from repro.core.params import Rate
from repro.experiments.ranges import format_loss_curves, run_figure3
from repro.experiments.two_nodes import udp_trace_spec
from repro.parallel import SweepCache, run_sweep
from repro.scenario import scenario_sweep_points

#: Small but non-trivial: ~3 distances × 2 seeds of a real scenario,
#: each returning its full delivery trace.
TRACE_POINTS = scenario_sweep_points(
    [
        udp_trace_spec(
            rate_mbps=2.0,
            distance_m=distance,
            duration_s=0.15,
            payload_bytes=256,
            seed=seed,
        )
        for distance in (10.0, 60.0, 110.0)
        for seed in (1, 2)
    ],
    extract="repro.experiments.two_nodes:rx_times",
)


class TestTraceIdentity:
    def test_two_node_udp_trace_jobs1_vs_jobs4(self):
        serial = run_sweep(TRACE_POINTS, jobs=1)
        parallel = run_sweep(TRACE_POINTS, jobs=4)
        # Trace-level comparison: every receive timestamp, in order.
        assert serial == parallel
        assert any(trace for trace in serial)  # the scenario delivered

    def test_trace_survives_a_cache_round_trip(self, tmp_path):
        cache = SweepCache(root=tmp_path, version_tag="identity")
        cold = run_sweep(TRACE_POINTS, cache=cache)
        warm = run_sweep(TRACE_POINTS, cache=cache)
        assert cache.hits == len(TRACE_POINTS)
        assert cold == warm == run_sweep(TRACE_POINTS)


class TestRenderedIdentity:
    @pytest.fixture(scope="class")
    def serial_curves(self):
        return run_figure3(probes=30)

    def test_figure3_jobs4_renders_identically(self, serial_curves):
        parallel = run_figure3(probes=30, jobs=4)
        assert format_loss_curves(parallel, "t") == format_loss_curves(
            serial_curves, "t"
        )

    def test_figure3_warm_cache_renders_identically(
        self, serial_curves, tmp_path
    ):
        cache = SweepCache(root=tmp_path, version_tag="identity")
        cold = run_figure3(probes=30, cache=cache, jobs=2)
        warm = run_figure3(probes=30, cache=cache)
        assert cache.hits > 0
        rendered = format_loss_curves(serial_curves, "t")
        assert format_loss_curves(cold, "t") == rendered
        assert format_loss_curves(warm, "t") == rendered

    def test_curve_metadata_preserved(self, serial_curves):
        assert [curve.rate for curve in serial_curves] == [
            Rate.MBPS_11,
            Rate.MBPS_5_5,
            Rate.MBPS_2,
            Rate.MBPS_1,
        ]
