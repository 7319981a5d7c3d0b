"""Structured tracing of simulation events.

Components publish :class:`TraceRecord` objects ("mac.tx_start",
"phy.rx_drop"...) to a :class:`Tracer`; analysis code subscribes either to
everything or to a category prefix, and may name the events it reads so
that it receives no others.  Tracing is off by default: then
:meth:`Tracer.emit` still formats its key and bumps its counter, and the
call sites of :meth:`Tracer.fanout` and :meth:`Tracer.emit_audit`, guarded
by :attr:`Tracer.active` and :attr:`Tracer.audit`, cost one attribute read.
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


class Tracer:
    """Fan-out hub for trace records with per-prefix subscriptions.

    Two emission paths exist:

    * :meth:`emit` — the general path: bumps the ``category.event``
      counter here, then fans out to subscribers.
    * self-counting components (the PHY and MAC hot paths) keep their
      own per-event counter dict, registered via
      :meth:`register_counters`, and call :meth:`fanout` only behind a
      read of the public :attr:`active` flag.  With no subscribers a
      hot-path trace then costs one local dict bump and one attribute
      read — no f-string key, no call into the tracer.  :meth:`count` /
      :meth:`counters` merge the registered dicts back in, so counter
      totals (and the golden trace digests derived from them) are
      identical whichever path a component uses.
    """

    def __init__(self) -> None:
        self._subscribers: list[
            tuple[str, frozenset[str] | None, TraceSubscriber]
        ] = []
        #: ``category.event`` -> the callbacks whose prefix matches it and
        #: whose event set admits its event, in subscription order.  Built
        #: on first delivery of each key.
        self._routes: dict[str, tuple[TraceSubscriber, ...]] = {}
        self._counters: dict[str, int] = {}
        self._registered: list[tuple[str, dict[str, int]]] = []
        #: Gate for the audit event channel (:meth:`emit_audit`).  A
        #: public attribute so instrumented hook points can guard with a
        #: single attribute read (``if tracer.audit: ...``) and pay
        #: nothing — not even keyword-argument packing — when auditing
        #: is off, which it is by default.
        self.audit = False
        #: True while at least one subscriber is attached — the cached
        #: flag self-counting components read before calling
        #: :meth:`fanout`.  Maintained by subscribe/unsubscribe.
        self.active = False

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
        self._subscribers.append(
            (prefix, None if events is None else frozenset(events), callback)
        )
        self._routes.clear()
        self.active = True

    def unsubscribe(self, callback: TraceSubscriber) -> None:
        """Detach a subscriber (all of its prefixes)."""
        self._subscribers = [
            entry for entry in self._subscribers if entry[2] != callback
        ]
        self._routes.clear()
        self.active = bool(self._subscribers)

    def register_counters(self, category: str, counters: dict[str, int]) -> None:
        """Adopt a component-owned ``event -> count`` dict.

        The component bumps ``counters`` directly on its hot path;
        :meth:`counters`/:meth:`count` report each entry as
        ``category.event``, summed with anything emitted through
        :meth:`emit` under the same key.  :meth:`reset_counters` clears
        registered dicts in place.
        """
        self._registered.append((category, counters))

    def emit(
        self, time_ns: int, category: str, event: str, **fields: Any
    ) -> None:
        """Publish one record; also bumps the ``category.event`` counter."""
        key = f"{category}.{event}"
        self._counters[key] = self._counters.get(key, 0) + 1
        if self.active:
            self._deliver(key, time_ns, category, event, fields)

    def fanout(
        self, time_ns: int, category: str, event: str, fields: dict[str, Any]
    ) -> None:
        """Deliver one record to subscribers *without* counting it.

        The fan-out half of :meth:`emit`, for self-counting components
        (their registered dict already holds the count).  Callers guard
        with :attr:`active`; calling with no subscribers is a no-op.
        """
        if self.active:
            self._deliver(f"{category}.{event}", time_ns, category, event, fields)

    def emit_audit(
        self, time_ns: int, category: str, event: str, **fields: Any
    ) -> None:
        """Publish an audit-channel record — a complete no-op unless
        :attr:`audit` is on.

        Audit events feed the :mod:`repro.obs` flight recorder.  When
        disabled they bump no counter and fan out to nobody, so trace
        counter digests (and cache keys derived from them) are identical
        whether a build carries audit instrumentation or not.
        """
        if not self.audit:
            return
        key = f"{category}.{event}"
        self._counters[key] = self._counters.get(key, 0) + 1
        if self.active:
            self._deliver(key, time_ns, category, event, fields)

    def _deliver(
        self, key: str, time_ns: int, category: str, event: str, fields: dict[str, Any]
    ) -> None:
        """Build one record and hand it to every callback routed to ``key``."""
        route = self._routes.get(key)
        if route is None:
            route = self._routes[key] = tuple(
                callback
                for prefix, events, callback in self._subscribers
                if key.startswith(prefix) and (events is None or event in events)
            )
        if route:
            record = TraceRecord(time_ns, category, event, fields)
            for callback in route:
                callback(record)

    def count(self, key: str) -> int:
        """How many records of ``category.event`` were emitted."""
        total = self._counters.get(key, 0)
        for category, counters in self._registered:
            prefix = category + "."
            if key.startswith(prefix):
                total += counters.get(key[len(prefix):], 0)
        return total

    def counters(self) -> dict[str, int]:
        """All counters, with registered component dicts merged in."""
        merged = dict(self._counters)
        for category, counters in self._registered:
            for event, value in counters.items():
                key = f"{category}.{event}"
                merged[key] = merged.get(key, 0) + value
        return merged

    def reset_counters(self) -> None:
        """Zero every counter (including registered component dicts)."""
        self._counters.clear()
        for _, counters in self._registered:
            counters.clear()
