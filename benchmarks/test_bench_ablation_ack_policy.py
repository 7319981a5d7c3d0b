"""Ablation: ACK policy in the Figure-7 scenario (DESIGN.md §2).

The standard sends the MAC ACK a SIFS after the data regardless of
carrier state; receiver starvation then comes from *deafness* (the PHY
is locked on a third station's frame).  The DEFER_IF_BUSY variant
additionally suppresses ACKs under energy detect and roughly doubles
the measured asymmetry — the bench quantifies that.
"""

from benchmarks.util import run_once, save_artifact
from repro.analysis.tables import render_table
from repro.apps.cbr import CbrSource
from repro.apps.sink import UdpSink
from repro.channel.placement import figure6_placement
from repro.core.params import Rate
from repro.mac.dcf import AckPolicy
from repro.scenario import build_network

DURATION_S = 6.0


def _run(policy: AckPolicy):
    placement = figure6_placement()
    net = build_network(
        [x for x, _ in placement.positions],
        data_rate=Rate.MBPS_11,
        ack_policy=policy,
    )
    sinks = []
    for index, (tx, rx) in enumerate(((0, 1), (2, 3))):
        port = 5001 + index
        sinks.append(UdpSink(net[rx], port=port, warmup_s=1.0))
        CbrSource(net[tx], dst=rx + 1, dst_port=port, payload_bytes=512)
    net.run(DURATION_S)
    s1, s2 = (sink.throughput_bps(DURATION_S) / 1e3 for sink in sinks)
    return s1, s2


def _evaluate():
    return {policy: _run(policy) for policy in AckPolicy}


def test_bench_ablation_ack_policy(benchmark):
    results = run_once(benchmark, _evaluate)
    rows = [
        (policy.value, round(s1, 1), round(s2, 1), round(s2 / max(s1, 0.1), 2))
        for policy, (s1, s2) in results.items()
    ]
    save_artifact(
        "ablation_ack_policy",
        render_table(
            ["ack policy", "1->2 (Kbps)", "3->4 (Kbps)", "ratio"],
            rows,
            title="Ablation - ACK policy in the Figure-7 scenario (UDP)",
        ),
    )
    always_s1, always_s2 = results[AckPolicy.ALWAYS]
    defer_s1, defer_s2 = results[AckPolicy.DEFER_IF_BUSY]
    # Both policies leave session 2 dominant...
    assert always_s2 / always_s1 > 1.5
    # ...but energy-based ACK suppression starves session 1 much harder.
    assert defer_s2 / max(defer_s1, 0.1) > always_s2 / always_s1
