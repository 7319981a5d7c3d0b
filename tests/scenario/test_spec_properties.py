"""Property-based guarantees for the scenario serialisation layer.

Hypothesis generates arbitrary *valid* scenario specs and checks the
contracts the sweep cache and the spec files depend on:

* ``ScenarioSpec.from_json(spec.to_json()) == spec`` (lossless
  round-trip),
* canonical serialisation is a fixed point — round-tripping never
  changes the bytes, so re-serialising can never miss the cache,
* semantically equal specs (ints vs floats, reordered JSON keys)
  produce the same canonical bytes and hence the same sweep-cache key.
"""

from __future__ import annotations

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.parallel.cache import canonical_params  # noqa: E402
from repro.scenario import (  # noqa: E402
    FaultSpec,
    FlowSpec,
    MacParamsSpec,
    ObservabilitySpec,
    ScenarioSpec,
    StackSpec,
    TopologySpec,
    TrafficSpec,
    WeatherSpec,
)
from repro.scenario.points import scenario_sweep_points  # noqa: E402

# ------------------------------------------------------------ strategies

finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e9, max_value=1e9
)
positive = st.floats(
    allow_nan=False, allow_infinity=False, min_value=1e-3, max_value=1e6
)
sigma = st.floats(allow_nan=False, allow_infinity=False, min_value=0, max_value=20)

weather = st.builds(
    WeatherSpec,
    name=st.sampled_from(["clear", "rain", "fog"]),
    offset_db=st.floats(allow_nan=False, allow_infinity=False,
                        min_value=-30, max_value=30),
    sigma_db=sigma,
    correlation_time_s=positive,
)


def topologies(max_stations: int = 5):
    return st.builds(
        lambda xs, fast, static, w, prop: TopologySpec(
            positions_m=tuple((x, 0.0) for x in xs),
            fast_sigma_db=fast,
            static_sigma_db=static,
            weather=w,
            propagation=prop,
        ),
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False,
                      min_value=0, max_value=1000),
            min_size=2,
            max_size=max_stations,
        ),
        sigma,
        sigma,
        st.none() | weather,
        st.sampled_from([None, "log-distance", "free-space", "two-ray"]),
    )


stacks = st.builds(
    StackSpec,
    data_rate_mbps=st.sampled_from([1.0, 2.0, 5.5, 11.0]),
    rts_enabled=st.booleans(),
    ack_policy=st.sampled_from(["always", "defer-if-busy"]),
    radio=st.sampled_from([None, "calibrated", "ns2"]),
    arf=st.booleans(),
    mac=st.builds(
        MacParamsSpec,
        short_retry_limit=st.none() | st.integers(min_value=0, max_value=10),
        long_retry_limit=st.none() | st.integers(min_value=0, max_value=10),
        queue_frames=st.none() | st.integers(min_value=1, max_value=500),
    ),
)


def flows(stations: int):
    endpoints = st.lists(
        st.integers(min_value=0, max_value=stations - 1),
        min_size=2, max_size=2, unique=True,
    )
    return st.one_of(
        st.builds(
            lambda ends, port, payload, rate: FlowSpec(
                kind="cbr", src=ends[0], dst=ends[1], port=port,
                payload_bytes=payload, rate_bps=rate,
            ),
            endpoints,
            st.integers(min_value=1, max_value=65535),
            st.integers(min_value=1, max_value=2000),
            st.none() | positive,
        ),
        st.builds(
            lambda ends, rate, on_s, off_s: FlowSpec(
                kind="onoff", src=ends[0], dst=ends[1],
                rate_bps=rate, mean_on_s=on_s, mean_off_s=off_s,
            ),
            endpoints,
            positive,
            positive,
            positive,
        ),
        st.builds(
            lambda ends, total: FlowSpec(
                kind="bulk-tcp", src=ends[0], dst=ends[1], total_bytes=total,
            ),
            endpoints,
            st.none() | st.integers(min_value=1, max_value=10**7),
        ),
    )


def faults(stations: int, n_flows: int):
    restartable = (
        st.lists(
            st.integers(min_value=0, max_value=n_flows - 1), max_size=n_flows
        )
        if n_flows
        else st.just([])
    )
    crash = st.builds(
        lambda start, dur, node, restarts: FaultSpec(
            kind="node-crash", start_s=start, duration_s=dur, node=node,
            restart_flows=tuple(sorted(set(restarts))),
        ),
        positive,
        st.none() | positive,
        st.integers(min_value=0, max_value=stations - 1),
        restartable,
    )
    blackout = st.builds(
        lambda start, dur, ends, bidir: FaultSpec(
            kind="link-blackout", start_s=start, duration_s=dur,
            node_a=ends[0], node_b=ends[1], bidirectional=bidir,
        ),
        positive,
        st.none() | positive,
        st.lists(
            st.integers(min_value=0, max_value=stations - 1),
            min_size=2, max_size=2, unique=True,
        ),
        st.booleans(),
    )
    jitter = st.builds(
        lambda start, dur, node, s: FaultSpec(
            kind="clock-jitter", start_s=start, duration_s=dur, node=node,
            sigma_ns=s,
        ),
        positive,
        st.none() | positive,
        st.integers(min_value=0, max_value=stations - 1),
        positive,
    )
    return st.one_of(crash, blackout, jitter)


observability = st.builds(
    ObservabilitySpec,
    audit=st.booleans(),
    trace_digest=st.booleans(),
    trace_jsonl=st.none() | st.just("trace.jsonl"),
    ledger_jsonl=st.none() | st.just("ledger.jsonl"),
)


@st.composite
def scenario_specs(draw):
    topology = draw(topologies())
    stations = len(topology.positions_m)
    flow_list = tuple(draw(st.lists(flows(stations), max_size=3)))
    fault_list = tuple(
        draw(st.lists(faults(stations, len(flow_list)), max_size=2))
    )
    duration = draw(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=0.1, max_value=600))
    warmup = draw(
        st.just(0.0)
        | st.floats(allow_nan=False, allow_infinity=False,
                    min_value=0, max_value=duration)
    )
    return ScenarioSpec(
        name=draw(st.sampled_from(["scenario", "prop", "figure-x"])),
        topology=topology,
        stack=draw(stacks),
        traffic=TrafficSpec(flows=flow_list),
        faults=fault_list,
        seed=draw(st.integers(min_value=0, max_value=2**31)),
        duration_s=duration,
        warmup_s=min(warmup, duration),
        observability=draw(observability),
    )


# ------------------------------------------------------------ properties


@settings(max_examples=60, deadline=None)
@given(scenario_specs())
def test_json_round_trip_is_lossless(spec):
    assert ScenarioSpec.from_json(spec.to_json()) == spec


@settings(max_examples=60, deadline=None)
@given(scenario_specs())
def test_canonical_serialisation_is_a_fixed_point(spec):
    canonical = spec.canonical_json()
    restored = ScenarioSpec.from_json(canonical)
    assert restored.canonical_json() == canonical
    # And serialising the same spec twice is trivially stable.
    assert spec.canonical_json() == canonical


@settings(max_examples=60, deadline=None)
@given(scenario_specs())
def test_key_order_never_changes_the_spec(spec):
    # A hand-edited spec file with reordered keys is the same scenario.
    doc = json.loads(spec.to_json())
    reordered = dict(reversed(list(doc.items())))
    restored = ScenarioSpec.from_dict(reordered)
    assert restored == spec
    assert restored.canonical_json() == spec.canonical_json()


@settings(max_examples=60, deadline=None)
@given(scenario_specs())
def test_equal_specs_share_a_sweep_cache_key(spec):
    # The cache keys on canonical_params of the point's parameters; a
    # round-tripped spec must hit the same entry.
    restored = ScenarioSpec.from_json(spec.to_json())
    [point_a] = scenario_sweep_points([spec], extract="m:f")
    [point_b] = scenario_sweep_points([restored], extract="m:f")
    assert canonical_params(point_a.params) == canonical_params(point_b.params)


def test_int_valued_fields_normalise_to_the_float_form():
    # Regression for the cache-key split: int and float spellings of the
    # same scenario must serialise identically.
    a = ScenarioSpec(
        topology=TopologySpec.line(0, 10, fast_sigma_db=0),
        seed=1, duration_s=2, warmup_s=1,
    )
    b = ScenarioSpec(
        topology=TopologySpec.line(0.0, 10.0, fast_sigma_db=0.0),
        seed=1, duration_s=2.0, warmup_s=1.0,
    )
    assert a == b
    assert a.canonical_json() == b.canonical_json()
    [pa] = scenario_sweep_points([a], extract="m:f")
    [pb] = scenario_sweep_points([b], extract="m:f")
    assert canonical_params(pa.params) == canonical_params(pb.params)


# --------------------------------------------------- topology factories

import dataclasses  # noqa: E402
import math  # noqa: E402

spacings = st.floats(
    allow_nan=False, allow_infinity=False, min_value=1.0, max_value=500.0
)

factory_topologies = st.one_of(
    st.builds(
        TopologySpec.chain,
        n=st.integers(min_value=2, max_value=40),
        spacing_m=spacings,
    ),
    st.builds(
        TopologySpec.grid,
        rows=st.integers(min_value=1, max_value=8),
        cols=st.integers(min_value=1, max_value=8),
        spacing_m=spacings,
    ),
    st.builds(
        TopologySpec.random,
        n=st.integers(min_value=1, max_value=60),
        spacing_m=spacings,
        seed=st.integers(min_value=0, max_value=2**31),
    ),
)


def _spec_around(topology):
    return ScenarioSpec(name="factory", topology=topology, seed=1, duration_s=1.0)


@settings(max_examples=60, deadline=None)
@given(factory_topologies)
def test_factory_topologies_round_trip_losslessly(topology):
    # Factory-generated positions are computed floats; they must survive
    # JSON bit for bit.
    spec = _spec_around(topology)
    assert ScenarioSpec.from_json(spec.to_json()) == spec
    canonical = spec.canonical_json()
    assert ScenarioSpec.from_json(canonical).canonical_json() == canonical


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=60),
    spacings,
    st.integers(min_value=0, max_value=2**31),
)
def test_random_layouts_are_seed_deterministic(n, spacing_m, seed):
    first = TopologySpec.random(n, spacing_m, seed)
    again = TopologySpec.random(n, spacing_m, seed)
    assert first.positions_m == again.positions_m
    side = spacing_m * math.sqrt(n)
    assert all(
        0.0 <= x <= side and 0.0 <= y <= side for x, y in first.positions_m
    )


def test_different_seeds_give_different_random_layouts():
    assert (
        TopologySpec.random(20, 50.0, seed=1).positions_m
        != TopologySpec.random(20, 50.0, seed=2).positions_m
    )


@settings(max_examples=40, deadline=None)
@given(factory_topologies)
def test_factory_specs_share_a_sweep_cache_key(topology):
    spec = _spec_around(topology)
    restored = ScenarioSpec.from_json(spec.to_json())
    [point_a] = scenario_sweep_points([spec], extract="m:f")
    [point_b] = scenario_sweep_points([restored], extract="m:f")
    assert canonical_params(point_a.params) == canonical_params(point_b.params)


# ------------------------------------------------ stack.mac normalisation
#
# StackSpec.normalised drops every stack.mac override that restates a
# default, so the sweep supervisor can see that differently spelled
# specs build one network.  These properties pin what it may and may
# not change.

from hypothesis import assume, example  # noqa: E402

from repro.errors import ConfigurationError  # noqa: E402
from repro.mac.dcf import DEFAULT_QUEUE_FRAMES  # noqa: E402

#: Override values that never restate a default: no queue depth here
#: is the default 200, and no DIFS here equals SIFS + 2 x slot
#: for any slot/SIFS pair drawn (20, 28, 34, 42, 50 or 56 µs).  The
#: pairs CW 8/16, CW 2048/4096 and SIFS 2/DIFS 5 are only valid
#: together: either half alone meets an inconsistent Table 1 default.
NON_DEFAULT = {
    "cw_min_slots": (16, 64, 8, 2048),
    "cw_max_slots": (128, 256, 16, 4096),
    "short_retry_limit": (1, 3),
    "long_retry_limit": (2, 7),
    "slot_time_us": (9.0,),
    "sifs_us": (16.0, 2.0),
    "difs_us": (40.0, 60.0, 5.0),
    "queue_frames": (5, 20),
}

#: Override values with the Table 1 defaults (and the derived DIFS
#: values, e.g. 5 = 2 + 2 x 1.5 µs) mixed in.
ANY_VALUE = {
    "cw_min_slots": (16, 32, 64, 8, 2048),
    "cw_max_slots": (128, 1024, 16, 4096),
    "short_retry_limit": (1, 7),
    "long_retry_limit": (2, 4),
    "slot_time_us": (9.0, 20.0, 1.5),
    "sifs_us": (10.0, 16.0, 2.0),
    "difs_us": (5.0, 28.0, 34.0, 40.0, 50.0, 56.0),
    "queue_frames": (5, 50, 200),
}

#: Overrides that are only valid together (see NON_DEFAULT), and one
#: whose DIFS restates the derived SIFS + 2 x slot.
COUPLED = [
    StackSpec(mac=MacParamsSpec(cw_min_slots=8, cw_max_slots=16)),
    StackSpec(mac=MacParamsSpec(cw_min_slots=2048, cw_max_slots=4096)),
    StackSpec(mac=MacParamsSpec(sifs_us=2.0, difs_us=5.0)),
    StackSpec(mac=MacParamsSpec(slot_time_us=1.5, sifs_us=2.0, difs_us=5.0)),
]


def effect(stack: StackSpec):
    """What build() reads from a stack's MAC overrides."""
    return stack.dot11_config(), stack.effective_queue_frames


def point_document(stack: StackSpec) -> str:
    spec = ScenarioSpec(topology=TopologySpec.line(0.0, 10.0), stack=stack)
    [point] = scenario_sweep_points([spec], extract="m:f")
    return canonical_params(point.params)


@st.composite
def mac_stacks(draw, values=ANY_VALUE):
    """A valid stack whose ``mac`` overrides are drawn from ``values``."""
    overrides = {
        name: draw(st.none() | st.sampled_from(choices))
        for name, choices in values.items()
    }
    try:
        mac = MacParamsSpec(**overrides)
    except ConfigurationError:
        assume(False)  # e.g. CWmin above CWmax
    return StackSpec(mac=mac)


@settings(max_examples=150, deadline=None)
@given(mac_stacks())
@example(COUPLED[0])
@example(COUPLED[1])
@example(COUPLED[2])
@example(COUPLED[3])
def test_normalisation_is_idempotent(stack):
    once = stack.normalised()
    assert once.normalised() == once
    assert once.normalised().to_dict() == once.to_dict()


@settings(max_examples=150, deadline=None)
@given(mac_stacks())
@example(COUPLED[0])
@example(COUPLED[1])
@example(COUPLED[2])
@example(COUPLED[3])
def test_normalisation_keeps_everything_build_reads(stack):
    normalised = stack.normalised()
    assert effect(normalised) == effect(stack)


@settings(max_examples=100, deadline=None)
@given(mac_stacks(values=NON_DEFAULT))
@example(COUPLED[0])
@example(COUPLED[1])
@example(COUPLED[2])
def test_stacks_without_default_valued_overrides_keep_their_bytes(stack):
    # No other experiment's point documents or cache keys move.
    assert stack.normalised() == stack
    spec = ScenarioSpec(topology=TopologySpec.line(0.0, 10.0), stack=stack)
    assert point_document(stack) == canonical_params(
        {"spec": spec.to_dict(), "extract": "m:f"}
    )


@settings(max_examples=150, deadline=None)
@given(mac_stacks(values=NON_DEFAULT), st.data())
def test_default_valued_spellings_share_one_canonical_json(stack, data):
    mac = stack.mac
    defaults = {
        "cw_min_slots": 32,
        "cw_max_slots": 1024,
        "short_retry_limit": 7,
        "long_retry_limit": 4,
        "slot_time_us": 20.0,
        "sifs_us": 10.0,
        "difs_us": effect(stack)[0].mac.difs_us,
        "queue_frames": DEFAULT_QUEUE_FRAMES,
    }
    unset = [name for name in defaults if getattr(mac, name) is None]
    spelled = data.draw(st.lists(st.sampled_from(unset), unique=True) if unset
                        else st.just([]))
    padded = dataclasses.replace(
        stack,
        mac=dataclasses.replace(mac, **{name: defaults[name] for name in spelled}),
    )
    assert effect(padded) == effect(stack)
    assert point_document(padded) == point_document(stack)


def test_every_mac_override_reaches_what_build_reads():
    # Normalisation drops any override that dot11_config() and
    # effective_queue_frames cannot see.  A new MacParamsSpec field that
    # build() reads some other way must fail here before it is added.
    names = [spec_field.name for spec_field in dataclasses.fields(MacParamsSpec)]
    assert sorted(names) == sorted(NON_DEFAULT)
    for name, (value, *_) in NON_DEFAULT.items():
        stack = StackSpec(mac=MacParamsSpec(**{name: value}))
        assert effect(stack) != effect(StackSpec()), name
        assert stack.normalised() == stack, name
