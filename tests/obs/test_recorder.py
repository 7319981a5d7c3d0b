"""FlightRecorder lifecycle: attach, shutdown-hook finalize, strictness."""

from __future__ import annotations

import pytest

from repro.errors import AuditError, SimulationError
from repro.obs import FlightRecorder
from repro.scenario import build
from repro.sim.engine import Simulator
from repro.sim.tracing import Tracer

from tests.obs.util import run_audited, two_node_udp_spec


def test_attach_enables_the_audit_channel():
    sim, tracer = Simulator(), Tracer()
    assert tracer.audit is False
    FlightRecorder(sim, tracer).attach()
    assert tracer.audit is True


def test_attach_is_idempotent():
    sim, tracer = Simulator(), Tracer()
    recorder = FlightRecorder(sim, tracer)
    assert recorder.attach() is recorder.attach()
    ledger = recorder.ledger
    recorder.attach()
    assert recorder.ledger is ledger


def test_simulator_shutdown_finalizes_the_books():
    net = build(two_node_udp_spec())
    assert net.recorder is not None
    net.run(0.5)
    assert net.recorder.report is None
    net.sim.shutdown()
    report = net.recorder.report
    assert report is not None
    assert report.balanced
    assert report.opened == report.delivered + sum(report.drops.values())


def test_finalize_is_idempotent():
    net = build(two_node_udp_spec())
    net.run(0.5)
    first = net.recorder.finalize()
    assert net.recorder.finalize() is first
    net.sim.shutdown()  # the shutdown hook must not rebuild the report
    assert net.recorder.report is first


def test_strict_mode_raises_on_violation_immediately():
    sim, tracer = Simulator(), Tracer()
    FlightRecorder(sim, tracer).attach()
    with pytest.raises(AuditError, match="NAV"):
        tracer.emit(10_000, "mac.1", "nav", until_ns=5_000)


def test_audit_error_is_a_simulation_error():
    # The hardened runner's retry/fault machinery catches
    # SimulationError; audits must flow through the same spine.
    assert issubclass(AuditError, SimulationError)


def test_non_strict_mode_collects_violations():
    sim, tracer = Simulator(), Tracer()
    recorder = FlightRecorder(sim, tracer, strict=False).attach()
    tracer.emit(10_000, "mac.1", "nav", until_ns=5_000)
    report = recorder.finalize()
    assert len(report.violations) == 1
    assert "NavAuditor" in report.violations[0]


def test_strict_finalize_raises_on_unbalanced_ledger():
    sim, tracer = Simulator(), Tracer()
    recorder = FlightRecorder(sim, tracer).attach()
    # An SDU that opens and never closes: conservation fails.
    tracer.emit(
        0, "net.1", "sdu_open",
        sdu=0, origin=1, dst=2, protocol="udp", size_bytes=512,
    )
    tracer.emit(100, "net.2", "sdu_deliver", sdu=0, origin=1)
    tracer.emit(200, "net.2", "sdu_deliver", sdu=1, origin=1)  # unknown SDU
    with pytest.raises(AuditError, match="never opened"):
        recorder.finalize()


def test_report_drop_table_renders():
    net = build(two_node_udp_spec())
    net.run(0.5)
    net.sim.shutdown()
    table = net.recorder.report.drop_table()
    assert "Packet ledger" in table
    assert "delivered" in table
    for line in ("retry-limit", "queue-overflow", "sim-end-in-flight"):
        assert line in table


def test_report_summary_is_grep_able():
    net = build(two_node_udp_spec())
    net.run(0.5)
    net.sim.shutdown()
    assert net.recorder.report.summary().startswith("ledger balanced:")


def test_audit_off_recorder_still_finalizes():
    sim, tracer = Simulator(), Tracer()
    recorder = FlightRecorder(sim, tracer, audit=False).attach()
    assert tracer.audit is False
    report = recorder.finalize()
    assert report.opened == 0
    assert report.balanced


def _subscribe_checking_events_per_record(original, skipped):
    """A ``Tracer.subscribe`` that ignores ``events`` when routing.

    Every record under the prefix reaches a guard in front of the
    callback, which passes on only the named events: the per-record check
    a subscriber makes when the tracer cannot filter for it.
    """

    def subscribe(self, callback, prefix="", events=None):
        if events is not None:
            names, inner = frozenset(events), callback

            def callback(record):
                if record.event in names:
                    inner(record)
                else:
                    skipped.append(record.event)

        original(self, callback, prefix)

    return subscribe


@pytest.mark.parametrize("name", ["figure7-tcp", "mac-surface-audit"])
def test_event_filters_drop_nothing_the_recorder_reads(monkeypatch, name):
    from repro.scenario import ScenarioSpec

    from tests.experiments.make_goldens import trace_spec_cases

    spec = ScenarioSpec.from_dict(
        {
            **trace_spec_cases()[name].to_dict(),
            "observability": {"audit": True, "trace_digest": True},
        }
    )
    filtered = run_audited(spec).recorder.report
    skipped: list[str] = []
    monkeypatch.setattr(
        Tracer, "subscribe", _subscribe_checking_events_per_record(Tracer.subscribe, skipped)
    )
    reference = run_audited(spec).recorder.report
    assert skipped, "the reference run routed no record outside an event set"
    assert filtered == reference
    assert filtered.balanced and filtered.trace_sha256 is not None
