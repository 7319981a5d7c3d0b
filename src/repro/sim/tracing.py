"""Structured tracing of simulation events.

Components publish :class:`TraceRecord` objects ("mac.tx_start",
"phy.rx_drop"...) to a :class:`Tracer`; analysis code subscribes either to
everything or to a category prefix, and may name the events it reads so
that it receives no others.

Every ``category.event`` key a component publishes goes through a
:class:`TraceChannel`, which holds the key's count and the callbacks
routed to it; the tracer reroutes every channel when a subscriber comes
or goes.  A component takes each channel once, at construction or on
the event's first use (:func:`take_channel`), and at each trace site
bumps ``count`` and builds the record only when ``callbacks`` is
non-empty.  An event nobody reads therefore costs one attribute
increment and one attribute read, however many subscribers read other
keys.  Audit sites do the same behind :attr:`Tracer.audit`, which is
off by default.  :meth:`Tracer.emit` is the general path for cold
callers such as fault schedules.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.units import ns_to_s

TraceSubscriber = Callable[["TraceRecord"], None]


class TraceRecord:
    """One trace event (slotted: a traced run builds one per delivery)."""

    __slots__ = ("time_ns", "category", "event", "fields")

    def __init__(
        self, time_ns: int, category: str, event: str, fields: dict[str, Any] | None = None
    ) -> None:
        self.time_ns = time_ns
        self.category = category
        self.event = event
        self.fields = {} if fields is None else fields

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (self.time_ns, self.category, self.event, self.fields) == (
            other.time_ns, other.category, other.event, other.fields
        )

    def __repr__(self) -> str:
        return (
            f"TraceRecord(time_ns={self.time_ns!r}, category={self.category!r}, "
            f"event={self.event!r}, fields={self.fields!r})"
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kv = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"[{ns_to_s(self.time_ns):.6f}s] {self.category}.{self.event} {kv}"


class TraceChannel:
    """One publisher's ``category.event`` key: its count and its readers.

    The emitting component bumps :attr:`count` for every event and calls
    :meth:`publish` only when :attr:`callbacks` is non-empty (or calls
    :meth:`emit`, which does both).  The :class:`Tracer` that issued the
    channel keeps :attr:`callbacks` current as subscribers come and go.
    """

    __slots__ = ("category", "event", "count", "callbacks")

    def __init__(self, category: str, event: str, callbacks: tuple[TraceSubscriber, ...]) -> None:
        self.category = category
        self.event = event
        self.count = 0
        #: The subscribers routed to this key, in subscription order.
        self.callbacks = callbacks

    def publish(self, time_ns: int, fields: dict[str, Any]) -> None:
        """Build one record and hand it to every callback."""
        record = TraceRecord(time_ns, self.category, self.event, fields)
        for callback in self.callbacks:
            callback(record)

    def emit(self, time_ns: int, fields: dict[str, Any]) -> None:
        """Count one event and publish it if anyone reads it.

        For rare events and for those a run that counts them nearly
        always reads: the caller builds ``fields`` either way.  Hot
        sites whose events often go unread inline the count and build
        their fields only behind a test of :attr:`callbacks`.
        """
        self.count += 1
        if self.callbacks:
            self.publish(time_ns, fields)


def take_channel(component: Any, event: str) -> TraceChannel:
    """Take ``component``'s ``event`` channel on the event's first use.

    For components built by the hundred: each holds ``None`` in
    ``_trace_<event>`` until the event first happens, so an unaudited
    network holds no channel for an audit event, nor for an event its
    station never sends.  Setting those attributes to ``None`` in
    ``__init__`` keeps them among the names CPython stores inline for
    every instance; added later, they would give each instance a dict.
    The component provides ``_tracer`` and ``_category``.
    """
    channel: TraceChannel = component._tracer.channel(component._category, event)
    setattr(component, f"_trace_{event}", channel)
    return channel


class Tracer:
    """Issues trace channels and routes subscribers to them.

    Components publish through the channels :meth:`channel` issues;
    :meth:`emit` and :meth:`emit_audit`, which look a key's channel up
    on every call, are for cold callers (fault schedules, tests).
    :meth:`count` and :meth:`counters` sum over every channel, whichever
    path published an event.
    """

    def __init__(self) -> None:
        self._subscribers: list[tuple[str, frozenset[str] | None, TraceSubscriber]] = []
        #: Every channel issued, in issue order.
        self._channels: list[TraceChannel] = []
        #: The channels of :meth:`emit`, by ``category.event`` key.
        self._keyed: dict[str, TraceChannel] = {}
        #: Gate for the audit events.  A public attribute so instrumented
        #: hook points can guard with a single attribute read (``if
        #: tracer.audit: ...``) and pay nothing when auditing is off,
        #: which it is by default.
        self.audit = False

    def subscribe(
        self,
        callback: TraceSubscriber,
        prefix: str = "",
        events: Iterable[str] | None = None,
    ) -> None:
        """Receive every record whose ``category.event`` starts with ``prefix``.

        Callbacks run in subscription order.  One subscribed under two
        matching prefixes receives each record twice.  One attached from
        inside a callback starts with the next record.  All of them share
        one record, so they must treat it and its ``fields`` as read-only.
        ``events``, when given, narrows the subscription to records whose
        ``event`` is one of those names; event names contain no dot, so
        the last part of a key is its event.  A record no callback
        receives is never built.
        """
        self._subscribers.append((prefix, None if events is None else frozenset(events), callback))
        self._reroute()

    def unsubscribe(self, callback: TraceSubscriber) -> None:
        """Detach a subscriber (all of its prefixes)."""
        self._subscribers = [entry for entry in self._subscribers if entry[2] != callback]
        self._reroute()

    def channel(self, category: str, event: str) -> TraceChannel:
        """A new channel for ``category.event``, routed to today's subscribers."""
        channel = TraceChannel(category, event, self._route(category, event))
        self._channels.append(channel)
        return channel

    def _route(self, category: str, event: str) -> tuple[TraceSubscriber, ...]:
        """The callbacks whose prefix and event set admit ``category.event``."""
        if not self._subscribers:
            return ()
        key = f"{category}.{event}"
        return tuple(
            callback
            for prefix, events, callback in self._subscribers
            if key.startswith(prefix) and (events is None or event in events)
        )

    def _reroute(self) -> None:
        for channel in self._channels:
            channel.callbacks = self._route(channel.category, channel.event)

    def emit(self, time_ns: int, category: str, event: str, **fields: Any) -> None:
        """Count and publish one record through the ``category.event`` channel."""
        key = f"{category}.{event}"
        channel = self._keyed.get(key)
        if channel is None:
            channel = self._keyed[key] = self.channel(category, event)
        channel.emit(time_ns, fields)

    def emit_audit(self, time_ns: int, category: str, event: str, **fields: Any) -> None:
        """:meth:`emit` an audit record for the :mod:`repro.obs` flight recorder.

        A no-op unless :attr:`audit` is on, so an unaudited run counts
        nothing for it and keeps the trace counter digests of a build
        without audit instrumentation.
        """
        if self.audit:
            self.emit(time_ns, category, event, **fields)

    def count(self, key: str) -> int:
        """How many records of ``category.event`` were published."""
        return self.counters().get(key, 0)

    def counters(self) -> dict[str, int]:
        """Every published key's count, summed over its channels."""
        totals: dict[str, int] = {}
        for channel in self._channels:
            if channel.count:
                key = f"{channel.category}.{channel.event}"
                totals[key] = totals.get(key, 0) + channel.count
        return totals

    def reset_counters(self) -> None:
        """Zero every channel's count."""
        for channel in self._channels:
            channel.count = 0
