"""Flight-recorder observability: packet ledger + online invariant auditors.

The flight recorder follows every application-layer SDU from the moment
the IP layer opens it until it reaches exactly one terminal state —
delivered, or dropped with a typed reason — and runs online auditors
that fail fast (with sim-time context) the moment a cross-layer
invariant breaks.  The ledger rides on the :class:`Tracer` audit
channel, which is off by default: an uninstrumented run pays one
attribute read per hook point and emits nothing.

:class:`AirtimeAuditor` reads the regular PHY events instead, and is
also the one channel-airtime account: attached on its own
(:meth:`Auditor.attach`) it reports each station's
transmissions, airtime and share of the air, and the busy fraction.

Entry points:

* :class:`FlightRecorder` — attach to a simulator + tracer pair.
* :func:`audit_experiment` — run a registry experiment with auditing on.
* :class:`AuditCollector` — session context that sweeps up recorders.
"""

from repro.obs.audit import AuditOutcome, audit_experiment
from repro.obs.auditors import (
    AirtimeAuditor,
    Auditor,
    NavAuditor,
    TcpMonotonicAuditor,
)
from repro.obs.export import LedgerWriter, TraceDigest
from repro.obs.ledger import DROP_REASONS, PacketLedger, SduEntry
from repro.obs.recorder import AuditReport, FlightRecorder
from repro.obs.session import AuditCollector, active_collector

__all__ = [
    "AirtimeAuditor",
    "AuditCollector",
    "AuditOutcome",
    "AuditReport",
    "Auditor",
    "DROP_REASONS",
    "FlightRecorder",
    "LedgerWriter",
    "NavAuditor",
    "PacketLedger",
    "SduEntry",
    "TcpMonotonicAuditor",
    "TraceDigest",
    "active_collector",
    "audit_experiment",
]
