"""Declarative scenario specs: topology + stack + traffic + faults as data.

Every experiment in the paper is a combination of one small vocabulary —
stations on a line, a NIC rate, RTS on/off, a traffic pattern, a seed.
The frozen dataclasses here capture that vocabulary as *data* with a
canonical, versioned JSON serialisation, so a complete scenario can live
in a file, be content-addressed by the sweep cache, and be rebuilt
bit-identically by :func:`repro.scenario.builder.build`.

The layers compose bottom-up:

* :class:`TopologySpec` — station positions, shadowing, propagation
  preset, weather and mobility;
* :class:`StackSpec` — NIC rate, RTS/CTS, ACK policy, radio preset, ARF,
  routing, and every MAC knob under :class:`MacParamsSpec` (``stack.mac``:
  contention window, retry limits, slot/SIFS/DIFS, queue depth);
* :class:`TrafficSpec` — CBR / on-off / bulk-TCP flows between station
  indices;
* :class:`FaultSpec` — a :mod:`repro.faults` impairment window, in
  serialisable form (node *indices* instead of live callbacks);
* :class:`ScenarioSpec` — all of the above plus seed / duration / warmup;
* :class:`SweepSpec` — a base scenario and override axes expanding to a
  scenario grid.

Each field is typed, defaulted and checked once, by its annotation: the
shared base :class:`_Spec` checks every field at construction (a float
field stores a ``float`` whether it was given ``1`` or ``1.0``, an int
field takes only an ``int``, a bool field only ``True`` or ``False``, a
tuple field also takes a list), writes the JSON document (``to_dict``)
and reads it back (``from_dict``).  ``from_dict`` fills a missing key
with the field's default and rejects unknown keys (a typo never
silently produces a default run); ``apply_overrides`` takes dotted
``--set``-style paths with the same strictness.  Documents are at
:data:`SPEC_VERSION` 3; other versions are rejected.
"""

# No ``from __future__ import annotations``: the spec codec reads each
# field's type from ``dataclasses.fields``, which then holds the
# evaluated annotation rather than its source text.

import dataclasses
import json
import math
import random
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import product
from typing import Any, TypeVar, get_args, get_origin

from repro.channel.weather import DayConditions
from repro.core.params import (
    DEFAULT_MAC_PARAMETERS,
    Dot11bConfig,
    MacParameters,
    Rate,
)
from repro.errors import ConfigurationError, FaultError
from repro.mac.dcf import DEFAULT_QUEUE_FRAMES, AckPolicy
from repro.net.routing import ROUTING_POLICIES

#: Serialisation format version; bump on incompatible spec changes.
SPEC_VERSION = 3

#: The :class:`MacParamsSpec` fields that override a
#: :class:`~repro.core.params.MacParameters` constant.
_MAC_PARAMETER_FIELDS = (
    "cw_min_slots", "cw_max_slots", "short_retry_limit", "long_retry_limit",
    "slot_time_us", "sifs_us", "difs_us",
)

#: Default per-frame shadowing used by the dynamic experiments.  Chosen
#: so the loss-vs-distance curves of Figure 3 spread over the distance
#: window the paper shows (roughly 20-30 m wide per rate).
DEFAULT_FAST_SIGMA_DB = 2.5

#: Propagation preset names (``None`` means the library default, the
#: calibrated log-distance model).
PROPAGATION_PRESETS = ("log-distance", "free-space", "two-ray")

#: Radio preset names (``None`` means the calibrated default).
RADIO_PRESETS = ("calibrated", "ns2")

FLOW_KINDS = ("cbr", "onoff", "bulk-tcp")

FAULT_KINDS = (
    "link-fade",
    "link-blackout",
    "interference",
    "node-crash",
    "clock-jitter",
)


class _WrongType(Exception):
    """A field value that its annotation does not admit."""


def _float(value: Any) -> float:
    # ``1`` and ``1.0`` describe the same scenario and compare equal; one
    # stored type gives them one canonical serialisation and so one
    # sweep-cache key.
    if type(value) is float:
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise _WrongType


def _int(value: Any) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise _WrongType


def _bool(value: Any) -> bool:
    if value is True or value is False:
        return value
    raise _WrongType


def _str(value: Any) -> str:
    if isinstance(value, str):
        return value
    raise _WrongType


def _any(value: Any) -> Any:
    return value


#: Check and description of each scalar annotation.
_SCALARS: dict[Any, tuple[Callable[[Any], Any], str]] = {
    float: (_float, "a number"),
    int: (_int, "an integer"),
    bool: (_bool, "true or false"),
    str: (_str, "a string"),
    Any: (_any, ""),
}


def _codec(hint: Any) -> tuple[Any, ...]:
    """``(exact, check, description, decode, encode)`` for annotation ``hint``.

    ``check`` returns a value normalised (floats stored as ``float``,
    lists as tuples) or raises :class:`_WrongType`; a value whose type is
    in ``exact`` is already normal and never reaches ``check``.
    ``decode`` turns a JSON value into what ``check`` takes (nested spec
    documents into specs) and ``encode`` turns a field value into JSON;
    ``None`` for either means the value passes as it is.
    """
    if hint in _SCALARS:
        check, what = _SCALARS[hint]
        return (() if hint is Any else (hint,)), check, what, None, None
    args = get_args(hint)
    if type(None) in args:
        [inner] = [arg for arg in args if arg is not type(None)]
        exact, check, what, decode, encode = _codec(inner)
        return (
            (*exact, type(None)),
            check,
            f"{what} or null",
            decode and (lambda value: None if value is None else decode(value)),
            encode and (lambda value: None if value is None else encode(value)),
        )
    if get_origin(hint) is tuple and args[-1] is Ellipsis:
        exact, check, what, decode, encode = _codec(args[0])

        def check_entries(value: Any) -> tuple[Any, ...]:
            if not isinstance(value, (tuple, list)):
                raise _WrongType
            return tuple(
                [item if type(item) in exact else check(item) for item in value]
            )

        return (
            (),
            check_entries,
            f"a list (each entry {what})" if what else "a list",
            decode and (
                lambda value: [decode(item) for item in value]
                if isinstance(value, (tuple, list)) else value
            ),
            (lambda value: [encode(item) for item in value]) if encode else list,
        )
    if get_origin(hint) is tuple:  # a fixed-length tuple of scalars
        checks = [_SCALARS[arg] for arg in args]

        def check_each(value: Any) -> tuple[Any, ...]:
            if not isinstance(value, (tuple, list)) or len(value) != len(checks):
                raise _WrongType
            return tuple([check(item) for (check, _), item in zip(checks, value)])

        return (), check_each, f"[{', '.join(what for _, what in checks)}]", None, list
    if isinstance(hint, type) and issubclass(hint, _Spec):

        def check_spec(value: Any) -> Any:
            if isinstance(value, hint):
                return value
            raise _WrongType

        return (hint,), check_spec, f"a {hint.__name__}", hint.from_dict, hint.to_dict
    raise TypeError(f"spec fields cannot be annotated {hint!r}")


class _Fields:
    """One spec class's fields and their codecs, from its annotations."""

    __slots__ = ("checks", "encoders", "decoders", "keys", "required")

    def __init__(self, cls: Any) -> None:
        spec_fields = dataclasses.fields(cls)
        codecs = [(f.name, _codec(f.type)) for f in spec_fields]
        self.checks = tuple(
            (name, exact, check, what) for name, (exact, check, what, _, _) in codecs
        )
        self.encoders = tuple((name, encode) for name, (*_, encode) in codecs)
        self.decoders = tuple((name, decode) for name, (*_, decode, _) in codecs)
        #: The keys a document may carry: the fields, and a ``version``
        #: that only the scenario and sweep readers check.
        self.keys = frozenset(name for name, _ in codecs) | {"version"}
        self.required = tuple(
            f.name
            for f in spec_fields
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        )


_S = TypeVar("_S", bound="_Spec")


class _Spec:
    """The codec every spec dataclass shares, driven by its annotations.

    A subclass names its document ``section`` (``class StackSpec(_Spec,
    section="stack")``), which error messages lead with.  Its
    :class:`_Fields` are derived from its field annotations on first use
    and kept on the class.
    """

    def __init_subclass__(cls, section: str, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._section = section

    @classmethod
    def _fields(cls) -> _Fields:
        fields = cls.__dict__.get("_spec_fields")
        if fields is None:
            fields = _Fields(cls)
            cls._spec_fields = fields  # type: ignore[attr-defined]
        return fields

    def __post_init__(self) -> None:
        self._check_types()

    def _check_types(self) -> None:
        """Check every field against its annotation and normalise it."""
        for name, exact, check, what in self._fields().checks:
            value = getattr(self, name)
            if type(value) in exact:
                continue
            try:
                object.__setattr__(self, name, check(value))
            except _WrongType:
                raise ConfigurationError(
                    f"{self._section} {name} must be {what}, got {value!r}"
                ) from None

    def to_dict(self) -> dict[str, Any]:
        """The JSON document: every field, nested specs as objects."""
        document = {}
        for name, encode in self._fields().encoders:
            value = getattr(self, name)
            document[name] = value if encode is None else encode(value)
        return document

    @classmethod
    def from_dict(cls: type[_S], data: Mapping[str, Any]) -> _S:
        """Read a :meth:`to_dict` document; a missing key takes its default."""
        section = cls._section
        if not isinstance(data, Mapping):
            raise ConfigurationError(f"{section} must be an object, got {data!r}")
        fields = cls._fields()
        if not data.keys() <= fields.keys:
            raise ConfigurationError(
                f"unknown {section} key(s) {sorted(data.keys() - fields.keys)}; "
                f"accepted: {sorted(fields.keys - {'version'})}"
            )
        missing = [name for name in fields.required if name not in data]
        if missing:
            raise ConfigurationError(f"{section} needs the key(s) {missing}")
        values = {}
        for name, decode in fields.decoders:
            if name in data:
                value = data[name]
                values[name] = value if decode is None else decode(value)
        return cls(**values)


@dataclass(frozen=True)
class WeatherSpec(_Spec, section="weather"):
    """Serialisable form of :class:`repro.channel.weather.DayConditions`."""

    name: str
    offset_db: float
    sigma_db: float = 1.5
    correlation_time_s: float = 30.0

    @classmethod
    def from_conditions(cls, day: DayConditions) -> "WeatherSpec":
        """Wrap an existing :class:`DayConditions` value."""
        return cls(
            name=day.name,
            offset_db=day.offset_db,
            sigma_db=day.sigma_db,
            correlation_time_s=day.correlation_time_s,
        )

    def to_conditions(self) -> DayConditions:
        """The :class:`DayConditions` the channel model consumes."""
        return DayConditions(
            name=self.name,
            offset_db=self.offset_db,
            sigma_db=self.sigma_db,
            correlation_time_s=self.correlation_time_s,
        )


@dataclass(frozen=True)
class MobilitySpec(_Spec, section="mobility"):
    """One moving station (the paper's walking-receiver pattern)."""

    node: int
    speed_m_s: float
    update_interval_s: float = 0.1
    kind: str = "walk-away"

    def __post_init__(self) -> None:
        self._check_types()
        if self.kind != "walk-away":
            raise ConfigurationError(
                f"unknown mobility kind {self.kind!r}; accepted: ['walk-away']"
            )
        if self.node < 0:
            raise ConfigurationError(f"mobility node must be >= 0, got {self.node}")
        if self.speed_m_s <= 0:
            raise ConfigurationError(
                f"mobility speed must be > 0 m/s, got {self.speed_m_s}"
            )
        if self.update_interval_s <= 0:
            raise ConfigurationError(
                f"mobility update interval must be > 0 s, got {self.update_interval_s}"
            )


@dataclass(frozen=True)
class TopologySpec(_Spec, section="topology"):
    """Where the stations sit and how the channel between them behaves."""

    positions_m: tuple[tuple[float, float], ...]
    fast_sigma_db: float = DEFAULT_FAST_SIGMA_DB
    static_sigma_db: float = 0.0
    weather: WeatherSpec | None = None
    #: One of :data:`PROPAGATION_PRESETS`, or ``None`` for the calibrated
    #: log-distance default.
    propagation: str | None = None
    mobility: tuple[MobilitySpec, ...] = ()

    def __post_init__(self) -> None:
        self._check_types()
        if not self.positions_m:
            raise ConfigurationError("topology needs at least one station position")
        if self.fast_sigma_db < 0 or self.static_sigma_db < 0:
            raise ConfigurationError("shadowing sigmas must be >= 0 dB")
        if self.propagation is not None and self.propagation not in PROPAGATION_PRESETS:
            raise ConfigurationError(
                f"unknown propagation preset {self.propagation!r}; "
                f"accepted: {list(PROPAGATION_PRESETS)} (or null for calibrated)"
            )
        for mobility in self.mobility:
            if mobility.node >= len(self.positions_m):
                raise ConfigurationError(
                    f"mobility targets node index {mobility.node}, but the "
                    f"topology has {len(self.positions_m)} stations"
                )

    @classmethod
    def line(cls, *xs: float, **kwargs: Any) -> "TopologySpec":
        """Stations on a line at the given x coordinates (paper style)."""
        return cls(positions_m=tuple((float(x), 0.0) for x in xs), **kwargs)

    @classmethod
    def chain(cls, n: int, spacing_m: float, **kwargs: Any) -> "TopologySpec":
        """``n`` stations in a line, ``spacing_m`` apart (multihop chain)."""
        if n < 2:
            raise ConfigurationError(f"a chain needs >= 2 stations, got {n}")
        if spacing_m <= 0:
            raise ConfigurationError(f"chain spacing must be > 0 m, got {spacing_m}")
        return cls(
            positions_m=tuple((i * float(spacing_m), 0.0) for i in range(n)),
            **kwargs,
        )

    @classmethod
    def grid(
        cls, rows: int, cols: int, spacing_m: float, **kwargs: Any
    ) -> "TopologySpec":
        """A ``rows`` x ``cols`` lattice, row-major station order."""
        if rows < 1 or cols < 1:
            raise ConfigurationError(
                f"grid needs rows >= 1 and cols >= 1, got {rows}x{cols}"
            )
        if spacing_m <= 0:
            raise ConfigurationError(f"grid spacing must be > 0 m, got {spacing_m}")
        spacing = float(spacing_m)
        return cls(
            positions_m=tuple(
                (col * spacing, row * spacing)
                for row in range(rows)
                for col in range(cols)
            ),
            **kwargs,
        )

    @classmethod
    def random(
        cls, n: int, spacing_m: float, seed: int, **kwargs: Any
    ) -> "TopologySpec":
        """``n`` stations uniform over a square with mean density
        matching one station per ``spacing_m``-sided cell.

        The square's side is ``spacing_m * sqrt(n)``, so the *density*
        (and therefore the mean neighbour count at any radius) stays
        fixed as ``n`` grows — exactly what the per-node-throughput-vs-
        density experiments need.  Same ``seed``, same layout, always.
        """
        if n < 1:
            raise ConfigurationError(f"random topology needs >= 1 station, got {n}")
        if spacing_m <= 0:
            raise ConfigurationError(
                f"random topology spacing must be > 0 m, got {spacing_m}"
            )
        side = float(spacing_m) * math.sqrt(n)
        # Layout generation is spec-level, not simulation-level: the
        # seed is pinned in the signature, so the draw is as auditable
        # as a literal position list (and cache-key stable).
        rng = random.Random(seed)
        return cls(
            positions_m=tuple(
                (rng.uniform(0.0, side), rng.uniform(0.0, side)) for _ in range(n)
            ),
            **kwargs,
        )


@dataclass(frozen=True)
class MacParamsSpec(_Spec, section="mac"):
    """Every MAC knob of a stack: the ``stack.mac`` overrides.

    Every field defaults to ``None`` = "use the Table 1 constant from
    :class:`repro.core.params.MacParameters`" (or, for ``queue_frames``,
    :data:`~repro.mac.dcf.DEFAULT_QUEUE_FRAMES`), so an all-``None``
    spec is the paper's configuration.  Set values build a custom
    :class:`~repro.core.params.MacParameters` for the whole network —
    the same object both the DCF stations and the analytic model
    (:mod:`repro.analysis.analytic`) consume, so a swept point and its
    closed-form prediction can never disagree about the constants.

    ``difs_us`` left ``None`` follows the standard's identity
    ``DIFS = SIFS + 2 x slot`` whenever slot or SIFS is overridden (the
    802.11b defaults satisfy it: 10 + 2 x 20 = 50 µs).

    ``queue_frames`` is the per-station MAC queue depth.
    """

    cw_min_slots: int | None = None
    cw_max_slots: int | None = None
    short_retry_limit: int | None = None
    long_retry_limit: int | None = None
    slot_time_us: float | None = None
    sifs_us: float | None = None
    difs_us: float | None = None
    queue_frames: int | None = None

    def __post_init__(self) -> None:
        self._check_types()
        for name in ("cw_min_slots", "cw_max_slots", "queue_frames"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigurationError(f"mac {name} must be >= 1, got {value}")
        for name in ("short_retry_limit", "long_retry_limit"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigurationError(f"mac {name} must be >= 0, got {value}")
        for name in ("slot_time_us", "sifs_us", "difs_us"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(f"mac {name} must be > 0 µs, got {value}")
        # Merge with the Table 1 defaults now so an inconsistent pair
        # (CWmin > CWmax, SIFS > DIFS) fails at spec construction, not
        # at build time deep inside a sweep.
        self.to_mac_parameters()

    def to_mac_parameters(self) -> MacParameters:
        """The effective :class:`MacParameters`: Table 1 plus these overrides."""
        overrides = {
            name: getattr(self, name)
            for name in _MAC_PARAMETER_FIELDS
            if getattr(self, name) is not None
        }
        if self.difs_us is None and (
            self.slot_time_us is not None or self.sifs_us is not None
        ):
            table1 = DEFAULT_MAC_PARAMETERS
            sifs = table1.sifs_us if self.sifs_us is None else self.sifs_us
            slot = table1.slot_time_us if self.slot_time_us is None else self.slot_time_us
            overrides["difs_us"] = sifs + 2.0 * slot
        return MacParameters(**overrides)

    @property
    def effective_queue_frames(self) -> int:
        """The MAC queue depth: ``queue_frames`` or the default."""
        if self.queue_frames is None:
            return DEFAULT_QUEUE_FRAMES
        return self.queue_frames

    def normalised(self) -> "MacParamsSpec":
        """These overrides with every one that changes nothing dropped.

        An override is dropped when removing it leaves
        :meth:`to_mac_parameters` and :attr:`effective_queue_frames`
        unchanged.  An override is kept when removing it would pair the
        rest with an inconsistent default (``cw_min_slots=8,
        cw_max_slots=16`` keeps both: CWmin 32 would exceed CWmax 16).
        A spec with nothing to drop is returned as is.
        """
        effect = (self.to_mac_parameters(), self.effective_queue_frames)
        mac = self
        for spec_field in dataclasses.fields(self):
            if getattr(mac, spec_field.name) is None:
                continue
            try:
                trial = dataclasses.replace(mac, **{spec_field.name: None})
            except ConfigurationError:
                continue
            if (trial.to_mac_parameters(), trial.effective_queue_frames) == effect:
                mac = trial
        return mac


@dataclass(frozen=True)
class StackSpec(_Spec, section="stack"):
    """Per-station PHY/MAC/transport configuration.

    Every MAC knob lives in :attr:`mac`, which is always present: its
    one dotted path (``stack.mac.short_retry_limit``,
    ``stack.mac.queue_frames``, ...) works on every spec.
    """

    data_rate_mbps: float = 11.0
    rts_enabled: bool = False
    ack_policy: str = "always"
    #: One of :data:`RADIO_PRESETS`, or ``None`` for the calibrated default.
    radio: str | None = None
    arf: bool = False
    #: MAC overrides (CWmin/CWmax, retry limits, slot/SIFS/DIFS, queue
    #: depth); all ``None`` is Table 1 plus the default queue.
    mac: MacParamsSpec = field(default_factory=MacParamsSpec)
    #: Routing policy: ``"direct"`` (single-hop, the paper's test-bed) |
    #: ``"shortest-path"`` (hop-count BFS tables built from the topology
    #: at build time, strict no-route misses), or ``None`` for direct.
    routing: str | None = None

    def __post_init__(self) -> None:
        self._check_types()
        Rate.from_mbps(self.data_rate_mbps)  # validates; raises ConfigurationError
        if self.ack_policy not in {policy.value for policy in AckPolicy}:
            raise ConfigurationError(
                f"unknown ack_policy {self.ack_policy!r}; accepted: "
                f"{sorted(policy.value for policy in AckPolicy)}"
            )
        if self.radio is not None and self.radio not in RADIO_PRESETS:
            raise ConfigurationError(
                f"unknown radio preset {self.radio!r}; "
                f"accepted: {list(RADIO_PRESETS)} (or null for calibrated)"
            )
        if self.routing is not None and self.routing not in ROUTING_POLICIES:
            raise ConfigurationError(
                f"unknown routing policy {self.routing!r}; "
                f"accepted: {list(ROUTING_POLICIES)} (or null for direct)"
            )

    @property
    def effective_queue_frames(self) -> int:
        """The MAC queue depth :func:`~repro.scenario.builder.build` uses."""
        return self.mac.effective_queue_frames

    def dot11_config(self) -> Dot11bConfig:
        """The protocol config this stack implies.

        Single source of truth for both sides of the conformance
        harness: :func:`repro.scenario.builder.build` hands this to
        every station, and :mod:`repro.analysis.analytic` computes its
        closed-form predictions from the very same object.
        """
        return Dot11bConfig(mac=self.mac.to_mac_parameters())

    def normalised(self) -> "StackSpec":
        """This stack with every ``stack.mac`` override that changes nothing dropped.

        See :meth:`MacParamsSpec.normalised`.  Stacks that build the same
        network then serialise identically, so their sweep points share
        one cache key.  A stack with nothing to drop is returned as is.
        """
        mac = self.mac.normalised()
        return self if mac is self.mac else dataclasses.replace(self, mac=mac)


@dataclass(frozen=True)
class FlowSpec(_Spec, section="flow"):
    """One traffic flow between two station indices.

    ``kind`` selects the generator: ``cbr`` (:class:`~repro.apps.cbr.
    CbrSource` into a :class:`~repro.apps.sink.UdpSink`; ``rate_bps``
    of ``None`` means saturated), ``onoff`` (bursty UDP), or
    ``bulk-tcp`` (an ftp-like transfer).
    """

    kind: str
    src: int
    dst: int
    port: int = 5001
    payload_bytes: int = 512
    rate_bps: float | None = None
    start_s: float = 0.0
    timestamped: bool = False
    #: On-off shape (``onoff`` flows only).
    mean_on_s: float = 0.5
    mean_off_s: float = 0.5
    #: Transfer size (``bulk-tcp`` flows only); ``None`` streams forever.
    total_bytes: int | None = None

    def __post_init__(self) -> None:
        self._check_types()
        if self.kind not in FLOW_KINDS:
            raise ConfigurationError(
                f"unknown flow kind {self.kind!r}; accepted: {list(FLOW_KINDS)}"
            )
        if self.src < 0 or self.dst < 0:
            raise ConfigurationError("flow endpoints must be >= 0")
        if self.src == self.dst:
            raise ConfigurationError(
                f"flow needs two distinct stations, got src == dst == {self.src}"
            )
        if self.port <= 0:
            raise ConfigurationError(f"flow port must be > 0, got {self.port}")
        if self.payload_bytes <= 0:
            raise ConfigurationError(
                f"flow payload must be > 0 bytes, got {self.payload_bytes}"
            )
        if self.rate_bps is not None and self.rate_bps <= 0:
            raise ConfigurationError(
                f"flow rate must be > 0 bps (or null for saturated), "
                f"got {self.rate_bps}"
            )
        if self.start_s < 0:
            raise ConfigurationError(f"flow start must be >= 0 s, got {self.start_s}")
        if self.kind == "onoff":
            if self.rate_bps is None:
                raise ConfigurationError("onoff flows need an explicit rate_bps")
            if self.mean_on_s <= 0 or self.mean_off_s <= 0:
                raise ConfigurationError("mean ON/OFF periods must be positive")
            if self.start_s != 0:
                raise ConfigurationError(
                    "onoff flows start at t=0 (the burst phase is random); "
                    f"got start_s={self.start_s!r}"
                )
        if self.total_bytes is not None and self.total_bytes <= 0:
            raise ConfigurationError(
                f"total_bytes must be > 0 (or null), got {self.total_bytes}"
            )


@dataclass(frozen=True)
class TrafficSpec(_Spec, section="traffic"):
    """The workload: an ordered tuple of flows (order is wiring order)."""

    flows: tuple[FlowSpec, ...] = ()


@dataclass(frozen=True)
class FaultSpec(_Spec, section="fault"):
    """Serialisable form of one :mod:`repro.faults` impairment.

    Unlike the live fault models, a spec carries only JSON primitives:
    a node-crash restart is expressed as ``restart_flows`` (indices into
    the scenario's flow list whose *source* application is recreated on
    reboot) instead of an ``on_reboot`` callback.
    """

    kind: str
    start_s: float
    duration_s: float | None = None
    # link-fade / link-blackout
    node_a: int = 0
    node_b: int = 1
    extra_loss_db: float | None = None
    bidirectional: bool = True
    # interference
    nodes: tuple[int, ...] | None = None
    noise_rise_db: float = 30.0
    # node-crash / clock-jitter
    node: int = 0
    restart_flows: tuple[int, ...] = ()
    sigma_ns: float = 2000.0

    def __post_init__(self) -> None:
        self._check_types()
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; accepted: {list(FAULT_KINDS)}"
            )

    def to_fault(self, flows: Sequence[Any] | None = None) -> Any:
        """Instantiate the live :class:`repro.faults.models.Fault`.

        ``flows`` are the scenario's flow handles (needed only for
        ``node-crash`` faults with ``restart_flows``).
        """
        from repro.faults.models import (
            BLACKOUT_LOSS_DB,
            ClockJitter,
            InterferenceBurst,
            LinkFade,
            NodeCrash,
        )

        if self.kind in ("link-fade", "link-blackout"):
            extra = self.extra_loss_db
            if extra is None or self.kind == "link-blackout":
                extra = BLACKOUT_LOSS_DB
            return LinkFade(
                start_s=self.start_s,
                duration_s=self.duration_s,
                node_a=self.node_a,
                node_b=self.node_b,
                extra_loss_db=extra,
                bidirectional=self.bidirectional,
            )
        if self.kind == "interference":
            return InterferenceBurst(
                start_s=self.start_s,
                duration_s=self.duration_s,
                nodes=self.nodes,
                noise_rise_db=self.noise_rise_db,
            )
        if self.kind == "clock-jitter":
            return ClockJitter(
                start_s=self.start_s,
                duration_s=self.duration_s,
                node=self.node,
                sigma_ns=self.sigma_ns,
            )
        # node-crash
        on_reboot = None
        if self.restart_flows:
            if flows is None:
                raise FaultError(
                    "node-crash with restart_flows needs the scenario's "
                    "flow handles; build the fault via repro.scenario.build"
                )
            try:
                handles = [flows[index] for index in self.restart_flows]
            except IndexError as error:
                raise FaultError(
                    f"restart_flows {list(self.restart_flows)} out of range "
                    f"for {len(flows)} flows"
                ) from error

            def on_reboot(_node: Any) -> None:
                for handle in handles:
                    handle.restart_source()

        return NodeCrash(
            start_s=self.start_s,
            duration_s=self.duration_s,
            node=self.node,
            on_reboot=on_reboot,
        )

    def max_node_index(self) -> int:
        """Largest station index the fault touches (for early validation)."""
        if self.kind in ("link-fade", "link-blackout"):
            return max(self.node_a, self.node_b)
        if self.kind == "interference":
            return max(self.nodes) if self.nodes else 0
        return self.node


@dataclass(frozen=True)
class ObservabilitySpec(_Spec, section="observability"):
    """What the flight recorder should do for this scenario.

    Everything defaults to off: an unobserved run pays one attribute
    read per instrumented hook point and nothing else.  ``audit`` turns
    on the packet-conservation ledger and the online invariant auditors
    (strict: violations raise :class:`~repro.errors.AuditError`);
    ``trace_digest`` streams a SHA-256 over the canonical encoding of
    the event stream; the two paths dump JSONL artefacts.
    """

    audit: bool = False
    trace_digest: bool = False
    trace_jsonl: str | None = None
    ledger_jsonl: str | None = None

    @property
    def enabled(self) -> bool:
        """True when any recorder feature is requested."""
        return bool(
            self.audit
            or self.trace_digest
            or self.trace_jsonl
            or self.ledger_jsonl
        )


def _check_version(data: Any, what: str) -> None:
    """Reject a ``what`` ("scenario" or "sweep") document of another version.

    Version 3 moved the stack's ``short_retry_limit``,
    ``long_retry_limit`` and ``mac_queue_frames`` under ``stack.mac``;
    the message names the moves, so an older document can be fixed by
    hand.
    """
    version = data.get("version", SPEC_VERSION) if isinstance(data, Mapping) else SPEC_VERSION
    if version != SPEC_VERSION:
        raise ConfigurationError(
            f"unsupported {what} spec version {version!r}; this build reads "
            f"version {SPEC_VERSION} only, which moved stack.short_retry_limit, "
            "stack.long_retry_limit and stack.mac_queue_frames to "
            "stack.mac.short_retry_limit, stack.mac.long_retry_limit and "
            "stack.mac.queue_frames"
        )


@dataclass(frozen=True)
class ScenarioSpec(_Spec, section="scenario"):
    """A complete, runnable scenario: everything but the code."""

    topology: TopologySpec
    stack: StackSpec = field(default_factory=StackSpec)
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    faults: tuple[FaultSpec, ...] = ()
    seed: int = 1
    duration_s: float = 10.0
    warmup_s: float = 0.0
    name: str = "scenario"
    observability: ObservabilitySpec = field(default_factory=ObservabilitySpec)

    def __post_init__(self) -> None:
        self._check_types()
        if (
            math.isnan(self.duration_s)
            or math.isinf(self.duration_s)
            or self.duration_s <= 0
        ):
            raise ConfigurationError(
                f"duration_s must be a positive finite number of seconds, "
                f"got {self.duration_s!r}"
            )
        if math.isnan(self.warmup_s) or self.warmup_s < 0:
            raise ConfigurationError(
                f"warmup_s must be >= 0 s, got {self.warmup_s!r}"
            )
        if self.warmup_s > self.duration_s:
            raise ConfigurationError(
                f"warmup_s ({self.warmup_s:g}) must not exceed "
                f"duration_s ({self.duration_s:g})"
            )
        stations = len(self.topology.positions_m)
        for index, flow in enumerate(self.traffic.flows):
            if max(flow.src, flow.dst) >= stations:
                raise ConfigurationError(
                    f"flow {index} ({flow.src}->{flow.dst}) references a "
                    f"station index beyond the {stations}-station topology"
                )
        for fault in self.faults:
            if fault.max_node_index() >= stations:
                raise ConfigurationError(
                    f"{fault.kind} fault references station index "
                    f"{fault.max_node_index()}, but the topology has "
                    f"{stations} stations"
                )
            for flow_index in fault.restart_flows:
                if flow_index >= len(self.traffic.flows):
                    raise ConfigurationError(
                        f"{fault.kind} fault restarts flow {flow_index}, but "
                        f"the scenario has {len(self.traffic.flows)} flows"
                    )

    def to_dict(self) -> dict[str, Any]:
        """Versioned, JSON-ready representation (all fields explicit)."""
        return {"version": SPEC_VERSION, **super().to_dict()}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        _check_version(data, "scenario")
        return super().from_dict(data)

    def canonical_json(self) -> str:
        """The canonical serialisation the sweep cache keys on."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def to_json(self, indent: int | None = 2) -> str:
        """Human-friendly JSON (write this to spec files)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"invalid scenario JSON: {error}") from error
        if not isinstance(data, dict):
            raise ConfigurationError("scenario spec must be a JSON object")
        return cls.from_dict(data)


def _set_in(node: Any, segments: list[str], value: Any, full_key: str) -> None:
    """Set a dotted-path key inside a ``to_dict`` document, strictly."""
    segment = segments[0]
    if isinstance(node, list):
        try:
            index = int(segment)
        except ValueError:
            raise ConfigurationError(
                f"override {full_key!r}: {segment!r} is not a list index"
            ) from None
        if not 0 <= index < len(node):
            raise ConfigurationError(
                f"override {full_key!r}: index {index} out of range "
                f"(list has {len(node)} entries)"
            )
        if len(segments) == 1:
            node[index] = value
        else:
            _set_in(node[index], segments[1:], value, full_key)
        return
    if isinstance(node, dict):
        if segment not in node or segment == "version":
            accepted = sorted(key for key in node if key != "version")
            raise ConfigurationError(
                f"unknown override key {full_key!r} (no field {segment!r}); "
                f"accepted here: {accepted}"
            )
        if len(segments) == 1:
            node[segment] = value
        elif node[segment] is None:
            raise ConfigurationError(
                f"override {full_key!r}: {segment!r} is null; set the whole "
                f"object (e.g. --set {segment}='{{...}}') instead"
            )
        else:
            _set_in(node[segment], segments[1:], value, full_key)
        return
    raise ConfigurationError(
        f"override {full_key!r}: cannot descend into a "
        f"{type(node).__name__} at {segment!r}"
    )


def apply_overrides(
    spec: ScenarioSpec, overrides: Mapping[str, Any]
) -> ScenarioSpec:
    """A new spec with dotted-path overrides applied.

    Keys address the ``to_dict`` document (``"stack.rts_enabled"``,
    ``"traffic.flows.0.payload_bytes"``); unknown keys raise
    :class:`~repro.errors.ConfigurationError` listing what is accepted,
    and the updated document is fully re-validated.
    """
    document = spec.to_dict()
    for key, value in overrides.items():
        segments = [segment for segment in key.split(".") if segment]
        if not segments:
            raise ConfigurationError(f"empty override key {key!r}")
        _set_in(document, segments, value, key)
    return ScenarioSpec.from_dict(document)


@dataclass(frozen=True)
class SweepAxis(_Spec, section="sweep axis"):
    """One override axis of a sweep: a dotted key and its values."""

    key: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        self._check_types()
        if not self.values:
            raise ConfigurationError(f"sweep axis {self.key!r} has no values")


@dataclass(frozen=True)
class SweepSpec(_Spec, section="sweep"):
    """A base scenario and the axes to sweep it over."""

    base: ScenarioSpec
    axes: tuple[SweepAxis, ...] = ()

    def expand(self) -> list[ScenarioSpec]:
        """Every scenario of the grid, first axis slowest (row-major)."""
        if not self.axes:
            return [self.base]
        grids = product(*(axis.values for axis in self.axes))
        return [
            apply_overrides(
                self.base,
                {axis.key: value for axis, value in zip(self.axes, combo)},
            )
            for combo in grids
        ]

    def to_dict(self) -> dict[str, Any]:
        return {"version": SPEC_VERSION, **super().to_dict()}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        _check_version(data, "sweep")
        return super().from_dict(data)
