"""Bench ``figure3``: packet loss vs distance for the four rates."""

from benchmarks.util import run_once, save_artifact, save_audit
from repro.experiments.ranges import (
    estimate_tx_range,
    format_loss_curves,
    run_figure3,
)
from repro.experiments.runner import RunnerConfig

PROBES = 120


def test_bench_figure3(benchmark):
    policy = RunnerConfig(max_retries=0)
    curves = run_once(benchmark, run_figure3, probes=PROBES, policy=policy)
    save_artifact(
        "figure3",
        format_loss_curves(curves, "Figure 3 - loss vs distance"),
        benchmark=benchmark,
    )
    save_audit("figure3", "figure3", probes=30, seed=1, benchmark=benchmark)

    by_rate = {curve.rate.mbps: curve for curve in curves}
    # The range ladder: faster rates cross 50% loss closer in.
    ranges = {
        mbps: estimate_tx_range(curve) for mbps, curve in by_rate.items()
    }
    assert ranges[11.0] < ranges[5.5] < ranges[2.0] < ranges[1.0]
    # Every curve starts essentially lossless and ends fully lost
    # (20 m and 150+ m, like the paper's x-axis).
    for curve in curves:
        assert curve.loss_rates[0] < 0.1
        assert curve.loss_rates[-1] > 0.9
