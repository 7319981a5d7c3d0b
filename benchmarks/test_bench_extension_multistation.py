"""Extension bench: DCF scaling with contending stations.

Not in the paper (its scenarios stop at two concurrent sessions), but
the canonical follow-up question: N saturated stations in one collision
domain.  Aggregate throughput must stay near the single-pair saturation
value (DCF collisions cost little at small N with CWmin = 32) while the
per-station share falls as ~1/N and short-term fairness stays sane.
"""

import pytest

from benchmarks.util import run_once, save_artifact
from repro.analysis.tables import render_table
from repro.apps.cbr import CbrSource
from repro.apps.sink import UdpSink
from repro.core.params import Rate
from repro.scenario import build_network

DURATION_S = 4.0


def _run(n_senders: int):
    # Senders in a tight cluster around a common sink: one collision
    # domain, no hidden terminals.
    positions = [0.0] + [2.0 + index * 1.0 for index in range(n_senders)]
    net = build_network(positions, data_rate=Rate.MBPS_11, fast_sigma_db=0.0)
    sinks = []
    for index in range(n_senders):
        port = 5001 + index
        sinks.append(UdpSink(net[0], port=port, warmup_s=0.5))
        CbrSource(
            net[index + 1], dst=1, dst_port=port, payload_bytes=512
        )
    net.run(DURATION_S)
    shares = [sink.throughput_bps(DURATION_S) / 1e6 for sink in sinks]
    return sum(shares), min(shares), max(shares)


def _evaluate():
    return {n: _run(n) for n in (1, 2, 4, 8)}


def test_bench_extension_multistation(benchmark):
    from repro.analysis.analytic import saturation_throughput

    results = run_once(benchmark, _evaluate)
    rows = [
        (
            n,
            total,
            # Bianchi's classic T_data + DIFS collision cost.
            saturation_throughput(n, collision_model="difs").throughput_bps / 1e6,
            worst,
            best,
            best / max(worst, 1e-9),
        )
        for n, (total, worst, best) in results.items()
    ]
    save_artifact(
        "extension_multistation",
        render_table(
            [
                "senders",
                "aggregate (Mbps)",
                "Bianchi (Mbps)",
                "worst share",
                "best share",
                "best/worst",
            ],
            rows,
            title="Extension - DCF scaling with saturated stations (11 Mbps)",
        ),
    )
    # The simulator agrees with Bianchi's independent analytic model at
    # every population (the two share only the airtime arithmetic).
    for n, total, bianchi, *_ in rows:
        assert total == pytest.approx(bianchi, rel=0.04), n
    single = results[1][0]
    # The Bianchi shape: aggregate throughput *rises* slightly with N at
    # CWmin = 32 (parallel backoff draws waste fewer idle slots than one
    # station's mean 15.5 slots), then plateaus as collisions start to
    # cost; it never collapses at these populations.
    assert results[2][0] > single
    for n, (total, _, _) in results.items():
        assert 0.8 * single < total < 1.25 * single, n
    # Long-run fairness: no station starves (short windows do show some
    # spread at N = 8).
    total8, worst8, best8 = results[8]
    assert best8 / worst8 < 2.5
    assert worst8 > 0.5 * (total8 / 8)
