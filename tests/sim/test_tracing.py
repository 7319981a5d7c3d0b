"""Tests for the tracing hub.

:class:`Tracer` keeps each channel's callbacks routed as subscribers
come and go.  :class:`LinearTracer` below compares every subscriber's
prefix and event set on every record and is the oracle: over random
interleavings of subscribe, unsubscribe, taking channels and the three
publishing paths, both must deliver the same records to the same
callbacks in the same order, and keep the same counters.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import tracing
from repro.sim.tracing import TraceRecord, Tracer


def publish(channel, time_ns, fields):
    """What a component's trace site does with its channel."""
    channel.count += 1
    if channel.callbacks:
        channel.publish(time_ns, fields)


class TestTracer:
    def test_disabled_by_default_but_counts(self):
        tracer = Tracer()
        channel = tracer.channel("mac", "tx_end")
        assert channel.callbacks == ()
        tracer.emit(0, "mac", "tx_start", frame="data")
        assert tracer.count("mac.tx_start") == 1

    def test_subscriber_receives_records(self):
        tracer = Tracer()
        records = []
        tracer.subscribe(records.append)
        tracer.emit(100, "phy", "rx_drop", reason="collision")
        assert len(records) == 1
        assert records[0].time_ns == 100
        assert records[0].category == "phy"
        assert records[0].fields["reason"] == "collision"

    def test_prefix_filtering(self):
        tracer = Tracer()
        mac_records = []
        tracer.subscribe(mac_records.append, prefix="mac.")
        tracer.emit(0, "mac", "tx_start")
        tracer.emit(0, "phy", "rx_start")
        assert [r.event for r in mac_records] == ["tx_start"]

    def test_unsubscribe(self):
        tracer = Tracer()
        records = []
        tracer.subscribe(records.append)
        tracer.unsubscribe(records.append)
        tracer.emit(0, "mac", "tx_start")
        publish(tracer.channel("mac", "tx_end"), 1, {})
        assert records == []

    def test_counters_accumulate(self):
        tracer = Tracer()
        for _ in range(3):
            tracer.emit(0, "mac", "retry")
        tracer.emit(0, "mac", "drop")
        assert tracer.counters() == {"mac.retry": 3, "mac.drop": 1}

    def test_reset_counters(self):
        tracer = Tracer()
        tracer.emit(0, "a", "b")
        channels = [tracer.channel("a", "c"), tracer.channel("a", "b")]
        for channel in channels:
            publish(channel, 0, {})
        tracer.reset_counters()
        assert tracer.count("a.b") == 0
        assert tracer.counters() == {}
        assert [channel.count for channel in channels] == [0, 0]

    def test_record_str_is_readable(self):
        tracer = Tracer()
        records = []
        tracer.subscribe(records.append)
        tracer.emit(1_000_000, "mac", "ack", dst=3)
        assert "mac.ack" in str(records[0])
        assert "dst=3" in str(records[0])


class LinearChannel:
    """Reference channel: scans the subscribers on every record."""

    def __init__(self, tracer, category, event):
        self._tracer = tracer
        self._category = category
        self._event = event

    @property
    def count(self):
        return self._tracer.counts.get(f"{self._category}.{self._event}", 0)

    @count.setter
    def count(self, value):
        self._tracer.counts[f"{self._category}.{self._event}"] = value

    @property
    def callbacks(self):
        return bool(self._tracer.subscribers)

    def publish(self, time_ns, fields):
        self._tracer.deliver(time_ns, self._category, self._event, fields)


class LinearTracer:
    """Reference delivery: compare every subscriber's filter per record."""

    def __init__(self):
        self.subscribers = []
        self.counts = {}
        self.audit = False

    def subscribe(self, callback, prefix="", events=None):
        self.subscribers.append((prefix, events, callback))

    def unsubscribe(self, callback):
        self.subscribers = [
            entry for entry in self.subscribers if entry[2] != callback
        ]

    def channel(self, category, event):
        return LinearChannel(self, category, event)

    def emit(self, time_ns, category, event, **fields):
        key = f"{category}.{event}"
        self.counts[key] = self.counts.get(key, 0) + 1
        self.deliver(time_ns, category, event, fields)

    def deliver(self, time_ns, category, event, fields):
        key = f"{category}.{event}"
        record = TraceRecord(time_ns, category, event, fields)
        for prefix, events, callback in self.subscribers:
            if key.startswith(prefix) and (events is None or event in events):
                callback(record)

    def emit_audit(self, time_ns, category, event, **fields):
        if not self.audit:
            return
        self.emit(time_ns, category, event, **fields)

    def counters(self):
        return {key: count for key, count in self.counts.items() if count}


PREFIXES = ["", "mac.", "mac.1.", "phy.", "net.3.sdu_open", "x"]
CATEGORIES = ["mac.1", "mac.12", "phy.0", "net.3", "x", "xy"]
EVENTS = ["tx", "sdu_open", "sdu_deliver"]
SUBSCRIBERS = 3

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("subscribe"),
            st.integers(0, SUBSCRIBERS - 1),
            st.sampled_from(PREFIXES),
            st.none() | st.sets(st.sampled_from(EVENTS + ["nav"]), max_size=2),
        ),
        st.tuples(st.just("unsubscribe"), st.integers(0, SUBSCRIBERS - 1)),
        st.tuples(
            st.just("channel"), st.sampled_from(CATEGORIES), st.sampled_from(EVENTS)
        ),
        st.tuples(
            st.sampled_from(["emit", "publish", "emit_audit"]),
            st.integers(min_value=0, max_value=10**9),
            st.sampled_from(CATEGORIES),
            st.sampled_from(EVENTS),
            st.dictionaries(st.sampled_from("abc"), st.integers(0, 9), max_size=2),
        ),
    ),
    max_size=40,
)


def replay(tracer, audit, ops):
    """Run ``ops`` on ``tracer``; return its delivery log and counters.

    ``channel`` takes a channel, as a component does, possibly one more
    for a key that has one already; ``publish`` goes through the first
    channel taken for its key (one is taken on the spot if none was).
    """
    log = []
    channels = {}

    def make(index):
        def callback(record):
            log.append(
                (index, record.time_ns, record.category, record.event, dict(record.fields))
            )
        return callback

    callbacks = [make(index) for index in range(SUBSCRIBERS)]
    tracer.audit = audit
    for op in ops:
        if op[0] == "subscribe":
            tracer.subscribe(callbacks[op[1]], prefix=op[2], events=op[3])
        elif op[0] == "unsubscribe":
            tracer.unsubscribe(callbacks[op[1]])
        elif op[0] == "channel":
            _, category, event = op
            channels.setdefault((category, event), tracer.channel(category, event))
        elif op[0] == "publish":
            _, time_ns, category, event, fields = op
            if (category, event) not in channels:
                channels[category, event] = tracer.channel(category, event)
            publish(channels[category, event], time_ns, dict(fields))
        else:
            name, time_ns, category, event, fields = op
            getattr(tracer, name)(time_ns, category, event, **fields)
    return log, sorted(tracer.counters().items())


class TestRouteTable:
    @settings(max_examples=300, deadline=None)
    @given(audit=st.booleans(), ops=operations)
    def test_delivers_and_counts_like_the_linear_scan(self, audit, ops):
        assert replay(Tracer(), audit, ops) == replay(LinearTracer(), audit, ops)

    def test_callback_under_two_matching_prefixes_receives_twice(self):
        tracer = Tracer()
        records = []
        tracer.subscribe(records.append, prefix="mac.")
        tracer.subscribe(records.append, prefix="mac.1.")
        tracer.subscribe(records.append, prefix="phy.")
        tracer.emit(5, "mac.1", "tx")
        tracer.emit(6, "mac.2", "tx")
        assert [r.time_ns for r in records] == [5, 5, 6]
        assert records[0] is records[1]

    def test_unsubscribe_removes_every_prefix(self):
        tracer = Tracer()
        records = []
        tracer.subscribe(records.append, prefix="mac.")
        tracer.subscribe(records.append, prefix="phy.")
        tracer.emit(0, "mac", "tx")
        tracer.unsubscribe(records.append)
        tracer.emit(1, "mac", "tx")
        tracer.emit(2, "phy", "rx")
        assert [r.time_ns for r in records] == [0]

    def test_subscribe_after_a_route_was_built(self):
        tracer = Tracer()
        first, second = [], []
        tracer.subscribe(first.append)
        tracer.emit(0, "mac", "tx")
        tracer.subscribe(second.append, prefix="mac.")
        tracer.emit(1, "mac", "tx")
        tracer.unsubscribe(first.append)
        tracer.emit(2, "mac", "tx")
        assert [r.time_ns for r in first] == [0, 1]
        assert [r.time_ns for r in second] == [1, 2]

    def test_a_key_routed_to_nobody_builds_no_record(self, monkeypatch):
        built = []

        class CountingRecord(TraceRecord):
            __slots__ = ()

            def __init__(self, time_ns, category, event, fields=None):
                built.append(f"{category}.{event}")
                super().__init__(time_ns, category, event, fields)

        monkeypatch.setattr(tracing, "TraceRecord", CountingRecord)
        tracer = Tracer()
        tracer.audit = True
        records = []
        tracer.subscribe(records.append, prefix="mac.", events={"nav"})
        tracer.emit(0, "mac.1", "tx_start")
        publish(tracer.channel("mac.1", "rx_end"), 1, {"ok": True})
        tracer.emit_audit(2, "mac.1", "sdu_drop", sdu=0)
        tracer.emit(3, "phy.n1", "nav")
        assert built == [] and records == []
        tracer.emit(4, "mac.1", "nav", until_ns=9)
        assert built == ["mac.1.nav"] and len(records) == 1

    def test_subscriber_added_in_a_callback_starts_with_the_next_record(self):
        tracer = Tracer()
        late = []

        def attach(record):
            if record.time_ns == 0:
                tracer.subscribe(late.append)

        tracer.subscribe(attach)
        tracer.emit(0, "mac", "tx")
        tracer.emit(1, "mac", "tx")
        assert [r.time_ns for r in late] == [1]


class TestChannels:
    def test_a_channel_taken_before_subscribe_receives_records(self):
        tracer = Tracer()
        channel = tracer.channel("mac.1", "tx_data")
        records = []
        tracer.subscribe(records.append, prefix="mac.", events={"tx_data"})
        publish(channel, 7, {"dst": 2})
        assert records == [TraceRecord(7, "mac.1", "tx_data", {"dst": 2})]

    def test_a_channel_receives_nothing_after_unsubscribe(self):
        tracer = Tracer()
        records = []
        tracer.subscribe(records.append)
        channel = tracer.channel("phy.0", "rx_end")
        tracer.unsubscribe(records.append)
        publish(channel, 1, {})
        assert records == [] and channel.callbacks == ()
        assert tracer.count("phy.0.rx_end") == 1

    def test_two_channels_of_one_key_sum(self):
        tracer = Tracer()
        first, second = tracer.channel("app.1", "offer"), tracer.channel("app.1", "offer")
        for _ in range(2):
            publish(first, 0, {})
        publish(second, 0, {})
        tracer.emit(0, "app.1", "offer")
        assert tracer.count("app.1.offer") == 4
        assert tracer.counters() == {"app.1.offer": 4}


class TestTraceRecord:
    def test_equality(self):
        record = TraceRecord(1, "mac", "tx", {"dst": 2})
        assert record == TraceRecord(1, "mac", "tx", {"dst": 2})
        assert record != TraceRecord(1, "mac", "tx", {"dst": 3})
        assert record != TraceRecord(2, "mac", "tx", {"dst": 2})
        assert record != (1, "mac", "tx", {"dst": 2})

    def test_repr(self):
        assert repr(TraceRecord(100, "phy", "rx_drop", {"reason": "collision"})) == (
            "TraceRecord(time_ns=100, category='phy', event='rx_drop', "
            "fields={'reason': 'collision'})"
        )

    def test_default_fields_are_a_fresh_dict(self):
        one, two = TraceRecord(0, "a", "b"), TraceRecord(0, "a", "b")
        assert one.fields == {} and one == two
        assert one.fields is not two.fields


def test_audited_hot_paths_publish_through_their_channels(monkeypatch):
    """No trace site of a saturated audited run falls back to a key lookup."""
    from repro.experiments.mac_surface import saturation_spec
    from repro.scenario import build

    def refuse(*args, **kwargs):
        raise AssertionError("a trace site took the key-lookup path")

    spec = saturation_spec(5, duration_s=0.2, warmup_s=0.1)
    assert spec.observability.audit
    monkeypatch.setattr(Tracer, "emit", refuse)
    monkeypatch.setattr(Tracer, "emit_audit", refuse)
    net = build(spec)
    net.run(spec.duration_s)
    report = net.recorder.finalize()
    assert report.balanced and report.opened > 0
    assert net.tracer.count("phy.n1.rx_end") > 0
