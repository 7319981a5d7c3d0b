"""Online invariant auditors.

Each auditor subscribes to a slice of the trace stream (a category
prefix and the events it reads) and checks one cross-layer invariant
*while the simulation runs*.  A violation calls
``on_violation(message)`` — the :class:`~repro.obs.recorder.FlightRecorder`
wires that to raise :class:`~repro.errors.AuditError` immediately (fail
fast, with sim-time context in the message) unless strict mode is off,
in which case violations accumulate on :attr:`Auditor.violations`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.tables import render_table
from repro.sim.tracing import TraceRecord, Tracer
from repro.units import ns_to_s


class Auditor:
    """Base class: violation plumbing shared by all auditors."""

    #: Subscription prefix on the tracer.
    prefix = ""
    #: The events :meth:`on_record` reads under :attr:`prefix`; the
    #: tracer routes it no others (``None``: every event).
    events: frozenset[str] | None = None

    def __init__(self) -> None:
        self.violations: list[str] = []
        self.on_violation: Callable[[str], None] | None = None

    def violate(self, time_ns: int, message: str) -> None:
        """Record a violation stamped with its simulation time."""
        stamped = f"[t={ns_to_s(time_ns):.6f}s] {type(self).__name__}: {message}"
        self.violations.append(stamped)
        if self.on_violation is not None:
            self.on_violation(stamped)

    def attach(self, tracer: Tracer) -> None:
        """Subscribe to ``tracer`` for the events this auditor reads."""
        tracer.subscribe(self.on_record, prefix=self.prefix, events=self.events)

    def on_record(self, record: TraceRecord) -> None:
        """Tracer subscriber; override."""
        raise NotImplementedError

    def finalize(self, end_ns: int) -> None:
        """End-of-run checks; default none."""


@dataclass(slots=True)
class StationAirtime:
    """One station's transmissions and the airtime they occupied."""

    name: str
    transmissions: int = 0
    airtime_ns: int = 0
    last_end_ns: int = 0


class AirtimeAuditor(Auditor):
    """Per-station airtime, which can never exceed elapsed simulation time.

    Rides the *regular* ``phy.`` trace events (``tx_start`` carries the
    transmission duration), so it needs no audit channel.  A
    transmission's whole airtime is charged when it starts: a frame
    still in the air when the run ends counts in full, and the observed
    span runs from the first transmission start to the latest
    transmission end, that frame's included.

    Two checks per station at each transmission start, one for the
    medium union at the end:

    * a station's cumulative airtime never exceeds the clock,
    * a station never starts transmitting before its previous
      transmission ended (half-duplex violation),
    * the union of all transmission intervals fits in the run.

    The same accounting answers which station holds the air: each
    station's transmissions and share of the span, the busy fraction
    and a printable :meth:`report` (the four-node experiments' S3
    occupying the channel while S1 spends its airtime on retries).
    """

    prefix = "phy."
    events = frozenset({"tx_start"})

    def __init__(self) -> None:
        super().__init__()
        self._stations: dict[str, StationAirtime] = {}
        self._first_start_ns: int | None = None
        self._union_busy_ns = 0
        self._union_end_ns = 0

    def on_record(self, record: TraceRecord) -> None:
        now = record.time_ns
        dur = record.fields.get("dur_ns", 0)
        station = self._stations.get(record.category)
        if station is None:
            name = record.category[len(self.prefix):]
            station = self._stations[record.category] = StationAirtime(name)
            if self._first_start_ns is None:
                self._first_start_ns = now
        if now < station.last_end_ns:
            self.violate(
                now,
                f"{record.category} starts a transmission at {now} ns while "
                f"its previous one runs until {station.last_end_ns} ns",
            )
        if station.airtime_ns > now:
            self.violate(
                now,
                f"{record.category} has accumulated {station.airtime_ns} ns "
                f"of airtime but only {now} ns have elapsed",
            )
        station.transmissions += 1
        station.airtime_ns += dur
        station.last_end_ns = now + dur
        # Union of transmission intervals across the medium: events
        # arrive in time order, so a running (busy, end) pair suffices.
        if now >= self._union_end_ns:
            self._union_busy_ns += dur
        else:
            self._union_busy_ns += max(0, now + dur - self._union_end_ns)
        self._union_end_ns = max(self._union_end_ns, now + dur)

    def finalize(self, end_ns: int) -> None:
        horizon = max(end_ns, self._union_end_ns)
        if self._union_busy_ns > horizon:
            self.violate(
                end_ns,
                f"medium occupied for {self._union_busy_ns} ns of a "
                f"{horizon} ns run",
            )

    @property
    def union_busy_ns(self) -> int:
        """Total time at least one station was transmitting."""
        return self._union_busy_ns

    @property
    def stations(self) -> tuple[StationAirtime, ...]:
        """Every station that transmitted, ordered by name."""
        return tuple(sorted(self._stations.values(), key=lambda s: s.name))

    @property
    def observed_span_ns(self) -> int:
        """From the first transmission start to the latest transmission end."""
        if self._first_start_ns is None:
            return 0
        return self._union_end_ns - self._first_start_ns

    def airtime_share(self, name: str) -> float:
        """Fraction of the observed span station ``name`` spent transmitting."""
        station = self._stations.get(self.prefix + name)
        span_ns = self.observed_span_ns
        if station is None or span_ns <= 0:
            return 0.0
        return station.airtime_ns / span_ns

    def busy_fraction(self) -> float:
        """Every station's airtime summed, over the observed span.

        At most 1 when transmissions never overlap; above 1 reveals
        concurrent (potentially colliding) transmissions, which
        :attr:`union_busy_ns` counts once.
        """
        span_ns = self.observed_span_ns
        if span_ns <= 0:
            return 0.0
        return sum(s.airtime_ns for s in self._stations.values()) / span_ns

    def report(self) -> str:
        """Per-station airtime table."""
        return render_table(
            ["station", "transmissions", "airtime (ms)", "share"],
            [
                (
                    station.name,
                    station.transmissions,
                    round(station.airtime_ns / 1e6, 1),
                    round(self.airtime_share(station.name), 3),
                )
                for station in self.stations
            ],
            title="Channel airtime audit",
        )


class NavAuditor(Auditor):
    """The NAV (virtual carrier sense) never points into the past."""

    prefix = "mac."
    events = frozenset({"nav"})

    def on_record(self, record: TraceRecord) -> None:
        until_ns = record.fields["until_ns"]
        if until_ns < record.time_ns:
            self.violate(
                record.time_ns,
                f"{record.category} set NAV to {until_ns} ns, which is "
                f"before the current time {record.time_ns} ns",
            )


class TcpMonotonicAuditor(Auditor):
    """TCP sequence/ack monotonicity per connection.

    ``snd_una`` and ``rcv_nxt`` only move forward, and ``snd_una`` never
    overtakes ``snd_nxt``.  State resets on each audit ``open`` event:
    a crash-reboot cycle restarts a flow on the same (addr, port), and
    the fresh connection legitimately begins back at sequence 0.
    """

    prefix = "tcp."
    events = frozenset({"open", "state"})

    def __init__(self) -> None:
        super().__init__()
        self._state: dict[str, tuple[int, int]] = {}  # category -> (una, rcv)

    def on_record(self, record: TraceRecord) -> None:
        if record.event == "open":
            self._state.pop(record.category, None)
            return
        snd_una = record.fields["snd_una"]
        snd_nxt = record.fields["snd_nxt"]
        rcv_nxt = record.fields["rcv_nxt"]
        now = record.time_ns
        if snd_una > snd_nxt:
            self.violate(
                now,
                f"{record.category} snd_una={snd_una} overtook "
                f"snd_nxt={snd_nxt}",
            )
        prev = self._state.get(record.category)
        if prev is not None:
            prev_una, prev_rcv = prev
            if snd_una < prev_una:
                self.violate(
                    now,
                    f"{record.category} snd_una moved backwards "
                    f"{prev_una} -> {snd_una}",
                )
            if rcv_nxt < prev_rcv:
                self.violate(
                    now,
                    f"{record.category} rcv_nxt moved backwards "
                    f"{prev_rcv} -> {rcv_nxt}",
                )
        self._state[record.category] = (snd_una, rcv_nxt)
