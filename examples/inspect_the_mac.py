#!/usr/bin/env python3
"""Looking inside the MAC: traces, airtime audits and counters.

Reruns a miniature Figure-7 scenario with the measurement tooling
attached: a JSONL frame trace (the simulator's tcpdump), a channel
airtime audit, and the per-station MIB counters — the instruments that
turn "session 1 is slow" into a mechanism.

Run with::

    python examples/inspect_the_mac.py
"""

import tempfile
from pathlib import Path

from repro import AirtimeAuditor, CbrSource, Rate, TraceWriter, UdpSink, build_network, read_trace
from repro.channel.placement import figure6_placement


def main() -> None:
    placement = figure6_placement()
    net = build_network(
        [x for x, _ in placement.positions], data_rate=Rate.MBPS_11
    )
    auditor = AirtimeAuditor()
    auditor.attach(net.tracer)
    sinks = []
    for index, (tx, rx) in enumerate(((0, 1), (2, 3))):
        port = 5001 + index
        sinks.append(UdpSink(net[rx], port=port, warmup_s=0.5))
        CbrSource(net[tx], dst=rx + 1, dst_port=port, payload_bytes=512)

    trace_path = Path(tempfile.gettempdir()) / "figure7-mac.jsonl"
    with TraceWriter(net.tracer, trace_path, prefix="mac.") as writer:
        net.run(3.0)

    print("=== session throughput ===")
    for label, sink in zip(("S1->S2", "S3->S4"), sinks):
        print(f"  {label}: {sink.throughput_bps(3.0) / 1e3:7.0f} Kbps")

    print("\n=== channel airtime audit ===")
    print(auditor.report())
    print(f"channel busy fraction: {auditor.busy_fraction():.2f}")

    print("\n=== MAC counters (the mechanism) ===")
    for node in net.nodes:
        counters = node.mac.counters
        print(
            f"  S{node.address}: data_tx={counters.data_tx:5} "
            f"ok={counters.tx_success:5} retries={counters.retries:5} "
            f"drops={counters.tx_drops:3} rx_errors={counters.rx_errors:5}"
        )

    records = read_trace(trace_path)
    retries = sum(1 for record in records if record.get("retry"))
    print(
        f"\n=== trace ===\n  {writer.records_written} MAC events written to "
        f"{trace_path}\n  {retries} of them are retransmissions"
    )
    print(
        "\nS1 transmits plenty of frames but most are retries of MSDUs\n"
        "S2 never hears (its PHY is locked on S3's traffic) - the\n"
        "deafness mechanism behind the paper's Figure-7 asymmetry."
    )


if __name__ == "__main__":
    main()
