"""The flight recorder: ledger + auditors + exporters on one simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.tables import render_table
from repro.analysis.tracefile import TraceWriter
from repro.errors import AuditError
from repro.obs.auditors import (
    AirtimeAuditor,
    Auditor,
    NavAuditor,
    TcpMonotonicAuditor,
)
from repro.obs.export import LedgerWriter, TraceDigest
from repro.obs.ledger import DROP_REASONS, PacketLedger
from repro.sim.engine import Simulator
from repro.sim.tracing import Tracer
from repro.units import ns_to_s


@dataclass(frozen=True)
class AuditReport:
    """What the flight recorder found, frozen at finalize time."""

    balanced: bool
    opened: int
    delivered: int
    drops: dict[str, int]
    anomalies: dict[str, int]
    violations: tuple[str, ...]
    problems: tuple[str, ...]
    end_ns: int
    trace_sha256: str | None = None
    artifacts: dict[str, str] = field(default_factory=dict)

    def drop_table(self) -> str:
        """The drop-reason breakdown as a printable table."""
        rows: list[list[object]] = [["delivered", self.delivered]]
        for reason in DROP_REASONS:
            rows.append([reason, self.drops.get(reason, 0)])
        rows.append(["opened", self.opened])
        return render_table(
            ["terminal state", "SDUs"], rows, title="Packet ledger"
        )

    def summary(self) -> str:
        """One grep-able line: balanced or not, and why not."""
        if self.balanced and not self.violations:
            return (
                f"ledger balanced: {self.opened} SDUs accounted for, "
                f"0 invariant violations, t_end={ns_to_s(self.end_ns):.3f}s"
            )
        details = list(self.problems) + list(self.violations)
        return "ledger NOT balanced: " + "; ".join(details)


class FlightRecorder:
    """Attaches observability to one (simulator, tracer) pair.

    ``attach()`` flips the tracer's audit channel on, subscribes the
    ledger and auditors, each to the events it reads, and registers
    :meth:`finalize` as a simulator shutdown hook, so a scenario that
    ends via :meth:`Simulator.shutdown` balances its books
    automatically.  In strict mode (the default) an invariant violation
    raises :class:`~repro.errors.AuditError` the moment it happens, and
    an unbalanced ledger raises at finalize.
    """

    def __init__(
        self,
        sim: Simulator,
        tracer: Tracer,
        *,
        audit: bool = True,
        strict: bool = True,
        trace_digest: bool = False,
        trace_jsonl: str | Path | None = None,
        ledger_jsonl: str | Path | None = None,
    ):
        self._sim = sim
        self._tracer = tracer
        self._audit = audit
        self._strict = strict
        self._want_digest = trace_digest
        self._trace_jsonl = trace_jsonl
        self._ledger_jsonl = ledger_jsonl
        self.ledger: PacketLedger | None = None
        self.auditors: tuple[Auditor, ...] = ()
        self.digest: TraceDigest | None = None
        self.writer: TraceWriter | None = None
        self.report: AuditReport | None = None
        self._attached = False
        self._finalized = False

    def attach(self) -> "FlightRecorder":
        """Subscribe everything; idempotent."""
        if self._attached:
            return self
        self._attached = True
        # Exporters subscribe first so they see the stream the auditors
        # judge (subscribers fire in subscription order).
        if self._want_digest:
            self.digest = TraceDigest(self._tracer)
        if self._trace_jsonl is not None:
            self.writer = TraceWriter(self._tracer, self._trace_jsonl)
        if self._audit:
            self._tracer.audit = True
            self.ledger = PacketLedger()
            self._tracer.subscribe(self.ledger.on_record, events=self.ledger.events)
            self.auditors = (
                AirtimeAuditor(),
                NavAuditor(),
                TcpMonotonicAuditor(),
            )
            for auditor in self.auditors:
                if self._strict:
                    auditor.on_violation = self._raise
                auditor.attach(self._tracer)
        self._sim.add_shutdown_hook(self.finalize)
        return self

    def _raise(self, message: str) -> None:
        raise AuditError(message)

    def finalize(self) -> AuditReport:
        """Close the books and build the report.  Idempotent.

        In strict mode raises :class:`AuditError` if the ledger does not
        balance or any auditor collected a violation.
        """
        if self._finalized:
            assert self.report is not None
            return self.report
        self._finalized = True
        end_ns = self._sim.now_ns
        violations: list[str] = []
        for auditor in self.auditors:
            auditor.finalize(end_ns)
            violations.extend(auditor.violations)
        problems: list[str] = []
        artifacts: dict[str, str] = {}
        if self.writer is not None:
            artifacts["trace_jsonl"] = str(self.writer.path)
            self.writer.close()
        opened = delivered = 0
        drops: dict[str, int] = {}
        anomalies: dict[str, int] = {}
        if self.ledger is not None:
            self.ledger.finalize(end_ns)
            problems = self.ledger.problems()
            opened = self.ledger.opened
            delivered = self.ledger.delivered
            drops = dict(self.ledger.drops)
            anomalies = dict(self.ledger.anomalies)
            if self._ledger_jsonl is not None:
                LedgerWriter(self._ledger_jsonl).write(self.ledger)
                artifacts["ledger_jsonl"] = str(self._ledger_jsonl)
        self.report = AuditReport(
            balanced=not problems,
            opened=opened,
            delivered=delivered,
            drops=drops,
            anomalies=anomalies,
            violations=tuple(violations),
            problems=tuple(problems),
            end_ns=end_ns,
            trace_sha256=(
                self.digest.hexdigest() if self.digest is not None else None
            ),
            artifacts=artifacts,
        )
        if self._strict and (problems or violations):
            raise AuditError(
                f"audit failed at t={ns_to_s(end_ns):.6f}s: "
                + "; ".join(problems + violations)
            )
        return self.report
