"""The packet-conservation ledger.

Every tracked SDU (an IP datagram with a non-negative ``sdu_id``) is
opened by its originating node's IP layer and must reach *exactly one*
terminal state:

========================  ====================================================
``delivered``             the destination IP layer handed it to a transport
``retry-limit``           the MAC gave up after the retry limit
``rx-collision``          a retry-limit drop with failed receptions observed
                          at the intended receiver (collision/interference
                          evidence, as opposed to a link simply out of range)
``queue-overflow``        tail-dropped at a full MAC queue
``no-route``              a strict routing table had no path to the
                          destination (at the origin or a forwarder)
``ttl-expired``           hop budget exhausted while forwarding (routing
                          loop protection)
``fault-crash``           flushed by a node crash (or offered to a down MAC)
``tcp-abort``             in flight when its TCP connection was torn down
``sim-end-in-flight``     still in flight when the simulation shut down
========================  ====================================================

The ledger *balances* when every opened SDU is closed exactly once and
no terminal event referenced an SDU that was never opened.  Duplicate
terminal signals that have a physical explanation (a delivered frame
whose ACK was lost, so the sender also declares a retry-limit drop) are
tallied as anomalies but do not break the balance; impossible ones
(double drop, double delivery, events for unknown SDUs) do.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.tracing import TraceRecord

#: Typed drop reasons, in the order the audit table prints them.
DROP_REASONS: tuple[str, ...] = (
    "retry-limit",
    "rx-collision",
    "queue-overflow",
    "no-route",
    "ttl-expired",
    "fault-crash",
    "tcp-abort",
    "sim-end-in-flight",
)

#: Entry states.
OPEN = "open"
DELIVERED = "delivered"
DROPPED = "dropped"


@dataclass
class SduEntry:
    """One tracked SDU's lifecycle."""

    origin: int
    sdu_id: int
    dst: int
    protocol: str
    size_bytes: int
    opened_ns: int
    src_port: int | None = None
    state: str = OPEN
    reason: str | None = None
    closed_ns: int | None = None
    #: The MAC-layer next hop of the current (or last) hop.
    last_mac_dst: int | None = None
    #: Failed receptions observed *at the intended receiver* since the
    #: last enqueue — the evidence that upgrades a retry-limit drop to
    #: ``rx-collision``.
    rx_fails_at_dst: int = 0
    hops: int = 0

    @property
    def key(self) -> tuple[int, int]:
        """Ledger key: SDU ids are unique per originating node."""
        return (self.origin, self.sdu_id)

    def to_dict(self) -> dict:
        """JSON-friendly dump (one ledger line in the JSONL export)."""
        return {
            "origin": self.origin,
            "sdu": self.sdu_id,
            "dst": self.dst,
            "protocol": self.protocol,
            "size_bytes": self.size_bytes,
            "opened_ns": self.opened_ns,
            "closed_ns": self.closed_ns,
            "state": self.state,
            "reason": self.reason,
            "hops": self.hops,
        }


class PacketLedger:
    """Subscribes to the audit event stream and balances the books.

    First terminal state wins: a late duplicate signal never
    reclassifies a closed entry, it increments an anomaly counter.
    """

    def __init__(self) -> None:
        self.entries: dict[tuple[int, int], SduEntry] = {}
        self.opened = 0
        self.delivered = 0
        self.drops: dict[str, int] = {reason: 0 for reason in DROP_REASONS}
        #: Physically explainable duplicate signals (ACK-loss retries...).
        self.anomalies: dict[str, int] = {}
        #: Terminal events naming SDUs that were never opened — an
        #: instrumentation gap; any of these fails the balance.
        self.unknown_events = 0
        #: (local_addr, src_port, time_ns) of every TCP abort seen.
        self.tcp_aborts: list[tuple[int, int | None, int]] = []
        self.finalized = False
        self._dispatch = {
            "sdu_open": self._on_open,
            "sdu_deliver": self._on_deliver,
            "sdu_forward": self._on_forward,
            "sdu_enqueue": self._on_enqueue,
            "sdu_drop": self._on_drop,
            "sdu_tx_ok": self._on_tx_ok,
            "sdu_rx_fail": self._on_rx_fail,
            "abort": self._on_tcp_abort,
        }

    # ------------------------------------------------------- subscription

    @property
    def events(self) -> frozenset[str]:
        """The event names :meth:`on_record` reads: subscribe with these."""
        return frozenset(self._dispatch)

    def on_record(self, record: TraceRecord) -> None:
        """Tracer subscriber for :attr:`events`: dispatch on the event name."""
        self._dispatch[record.event](record)

    def _anomaly(self, kind: str) -> None:
        self.anomalies[kind] = self.anomalies.get(kind, 0) + 1

    def _lookup(self, record: TraceRecord) -> SduEntry | None:
        key = (record.fields["origin"], record.fields["sdu"])
        entry = self.entries.get(key)
        if entry is None:
            self.unknown_events += 1
        return entry

    # ------------------------------------------------------------ events

    def _on_open(self, record: TraceRecord) -> None:
        fields = record.fields
        key = (fields["origin"], fields["sdu"])
        if key in self.entries:
            self._anomaly("duplicate-open")
            return
        self.entries[key] = SduEntry(
            origin=fields["origin"],
            sdu_id=fields["sdu"],
            dst=fields["dst"],
            protocol=fields["protocol"],
            size_bytes=fields["size_bytes"],
            opened_ns=record.time_ns,
            src_port=fields.get("src_port"),
        )
        self.opened += 1

    def _on_deliver(self, record: TraceRecord) -> None:
        entry = self._lookup(record)
        if entry is None:
            return
        if entry.state is not OPEN:
            if entry.state is DROPPED and entry.reason == "fault-crash":
                # Physically possible: the frame was already in the air
                # when its sender crashed and flushed the MAC, so the
                # receiver completes a reception the ledger has already
                # written off.  The drop stands (first terminal wins).
                self._anomaly("deliver-after-crash")
            else:
                # Impossible without a MAC dedup failure: count and fail.
                self._anomaly("terminal-after-close:deliver")
            return
        entry.state = DELIVERED
        entry.closed_ns = record.time_ns
        self.delivered += 1

    def _on_forward(self, record: TraceRecord) -> None:
        entry = self._lookup(record)
        if entry is not None:
            entry.hops += 1

    def _on_enqueue(self, record: TraceRecord) -> None:
        entry = self._lookup(record)
        if entry is None:
            return
        entry.last_mac_dst = record.fields["dst"]
        entry.rx_fails_at_dst = 0

    def _on_drop(self, record: TraceRecord) -> None:
        entry = self._lookup(record)
        if entry is None:
            return
        reason = record.fields["reason"]
        if reason == "retry-limit" and entry.rx_fails_at_dst > 0:
            reason = "rx-collision"
        if entry.state is DROPPED:
            # The MAC can only drop an SDU once; twice is a bug.
            self._anomaly("double-drop")
            return
        if entry.state is DELIVERED:
            # Physically possible: the data frame arrived but its ACK
            # was lost, so the sender exhausted retries on a frame the
            # receiver already delivered.  Delivery stands.
            self._anomaly("drop-after-delivery")
            return
        self._close_dropped(entry, reason, record.time_ns)

    def _on_tx_ok(self, record: TraceRecord) -> None:
        entry = self._lookup(record)
        if entry is not None:
            entry.rx_fails_at_dst = 0

    def _on_rx_fail(self, record: TraceRecord) -> None:
        # Evidence, not a terminal: a stale failure (frame still in the
        # air after its entry closed) is silently ignored, and an
        # unknown SDU here does not break the balance.
        key = (record.fields["origin"], record.fields["sdu"])
        entry = self.entries.get(key)
        if entry is None or entry.state is not OPEN:
            return
        receiver = _receiver_address(record.category)
        if receiver is not None and receiver == entry.last_mac_dst:
            entry.rx_fails_at_dst += 1

    def _on_tcp_abort(self, record: TraceRecord) -> None:
        addr, port = _tcp_endpoint(record.category)
        self.tcp_aborts.append((addr, port, record.time_ns))

    def _close_dropped(self, entry: SduEntry, reason: str, time_ns: int) -> None:
        entry.state = DROPPED
        entry.reason = reason
        entry.closed_ns = time_ns
        self.drops[reason] = self.drops.get(reason, 0) + 1

    # ---------------------------------------------------------- finalize

    def finalize(self, end_ns: int) -> None:
        """Close the books at simulation end.

        Still-open TCP SDUs whose connection recorded an abort become
        ``tcp-abort``; everything else still open becomes
        ``sim-end-in-flight``.  Idempotent.
        """
        if self.finalized:
            return
        self.finalized = True
        aborted = {(addr, port) for addr, port, _ in self.tcp_aborts}
        for entry in self.entries.values():
            if entry.state is not OPEN:
                continue
            if (
                entry.protocol == "tcp"
                and (entry.origin, entry.src_port) in aborted
            ):
                self._close_dropped(entry, "tcp-abort", end_ns)
            else:
                self._close_dropped(entry, "sim-end-in-flight", end_ns)

    # ------------------------------------------------------------ checks

    @property
    def in_flight(self) -> int:
        """Entries not yet closed."""
        return sum(1 for e in self.entries.values() if e.state is OPEN)

    @property
    def balanced(self) -> bool:
        """True when conservation holds (see :meth:`problems`)."""
        return not self.problems()

    def problems(self) -> list[str]:
        """Human-readable conservation violations (empty = balanced)."""
        problems: list[str] = []
        closed = self.delivered + sum(self.drops.values())
        if closed != self.opened:
            problems.append(
                f"opened {self.opened} SDUs but closed {closed} "
                f"({self.in_flight} still in flight)"
            )
        if self.unknown_events:
            problems.append(
                f"{self.unknown_events} audit event(s) referenced SDUs "
                f"that were never opened"
            )
        for kind in ("double-drop", "terminal-after-close:deliver",
                     "duplicate-open"):
            if self.anomalies.get(kind):
                problems.append(
                    f"{self.anomalies[kind]} impossible duplicate "
                    f"signal(s): {kind}"
                )
        return problems


def _receiver_address(category: str) -> int | None:
    """Station address from a ``phy.n<addr>`` category, else ``None``.

    The scenario builder names every transceiver ``n<address>``; a raw
    transceiver's default name does not parse, and its failures then
    never count as collision evidence (they cannot be attributed).
    """
    prefix = "phy.n"
    if not category.startswith(prefix):
        return None
    try:
        return int(category[len(prefix):])
    except ValueError:
        return None


def _tcp_endpoint(category: str) -> tuple[int, int | None]:
    """(addr, port) from a ``tcp.<addr>:<port>`` category."""
    _, _, endpoint = category.partition(".")
    addr_text, _, port_text = endpoint.partition(":")
    try:
        return int(addr_text), int(port_text)
    except ValueError:
        return -1, None
