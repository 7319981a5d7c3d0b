"""Span recording around ``repro``'s layer boundaries, from outside.

:func:`instrument` installs wrappers on public classes and functions of
``repro`` and removes them on exit, restoring every original attribute.
Each wrapper records one span per call into a :class:`SpanRecorder`:
flat ``array('q')`` columns ``site``, ``start``, ``end``, ``parent`` and
``point``.  A *site* is one wrapped entry point; ``SpanRecorder.sites``
maps it to its name and to the ``repro.<package>`` layer that owns it.

Three kinds of wrapper exist:

* entry-point spans around public methods and functions
  (``Medium.transmit``, ``MacStation.on_rx_end``, ``build`` ...);
* event spans: ``Simulator.schedule_slot``/``schedule_slot_at`` wrap the
  callback of every scheduled event, and ``Timer.__init__`` and the
  public callback registrations wrap theirs, each tagged with the
  package whose code the callback is;
* counters that record no span (``Simulator.cancel_slot``).

A layer's self time is the summed duration of its spans minus the time
their child spans cover (:func:`self_time_ns`).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: The ``repro.<package>`` layers a span can be attributed to.  Code in
#: any other package (experiments, faults, core ...) and the root span's
#: own time are reported together as unattributed.
LAYERS = ("sim", "channel", "phy", "mac", "net", "transport", "apps", "scenario",
          "parallel", "obs")

COLUMNS = ("site", "start", "end", "parent", "point")

_MARK = "_suite_site"


def layer_of(module: str | None) -> str:
    """``repro.phy.transceiver`` -> ``phy``; anything else -> ``other``."""
    parts = (module or "").split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


class SpanRecorder:
    """In-memory span columns for one traced run.

    Site 0 is the root span, opened by :meth:`root` around the whole
    workload call; every other span nests under it.
    """

    def __init__(self) -> None:
        self.site = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.point = array("q")
        self.sites: list[tuple[str, str]] = [("root", "root")]
        self._site_ids: dict[str, int] = {"root": 0}
        self.stack: list[int] = []
        #: One-element cell holding the current point id (0 = none).
        self.current_point = [0]

    def site_id(self, name: str, layer: str) -> int:
        index = self._site_ids.get(name)
        if index is None:
            index = self._site_ids[name] = len(self.sites)
            self.sites.append((name, layer))
        return index

    def open(self, site: int) -> int:
        index = len(self.end)
        stack = self.stack
        self.site.append(site)
        self.parent.append(stack[-1] if stack else -1)
        self.point.append(self.current_point[0])
        self.end.append(0)
        stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self.stack.pop()

    @contextmanager
    def root(self) -> Iterator[None]:
        index = self.open(0)
        try:
            yield
        finally:
            self.close(index)

    def spanned(self, fn: Callable[..., Any], site: int) -> Callable[..., Any]:
        """``fn`` wrapped in a span of ``site`` (metadata copied from ``fn``)."""
        sites, parents, points = self.site.append, self.parent.append, self.point.append
        starts, ends = self.start.append, self.end
        ends_append, stack, cell = ends.append, self.stack, self.current_point
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(ends)
            sites(site)
            parents(stack[-1])
            points(cell[0])
            ends_append(0)
            stack.append(index)
            starts(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        setattr(wrapper, _MARK, site)
        return wrapper

    def dispatcher(self) -> Callable[..., None]:
        """``dispatch(site, callback, *args)``: one span around ``callback(*args)``.

        The per-event twin of :meth:`spanned`, scheduled in place of the
        callback so no wrapper is allocated per event.
        """
        sites, parents, points = self.site.append, self.parent.append, self.point.append
        starts, ends = self.start.append, self.end
        ends_append, stack, cell = ends.append, self.stack, self.current_point
        clock = time.perf_counter_ns

        def dispatch(site: int, callback: Callable[..., None], *args: Any) -> None:
            index = len(ends)
            sites(site)
            parents(stack[-1])
            points(cell[0])
            ends_append(0)
            stack.append(index)
            starts(clock())
            try:
                callback(*args)
            finally:
                ends[index] = clock()
                stack.pop()

        return dispatch

    def columns(self) -> dict[str, list[int]]:
        return {name: getattr(self, name).tolist() for name in COLUMNS}


def self_time_ns(recorder: SpanRecorder) -> dict[str, int]:
    """Self time per layer (plus ``unattributed``), in nanoseconds.

    A span's self time is its duration minus its direct children's
    durations; a child's own descendants are subtracted from the child,
    so nested spans of one layer are never counted twice.  The values
    sum to the root span's duration.
    """
    durations = [end - start for start, end in zip(recorder.start, recorder.end)]
    covered = [0] * len(durations)
    for parent, duration in zip(recorder.parent, durations):
        if parent >= 0:
            covered[parent] += duration
    layer_of_site = [
        layer if layer in LAYERS else "unattributed" for _, layer in recorder.sites
    ]
    totals = dict.fromkeys((*LAYERS, "unattributed"), 0)
    for site, duration, child in zip(recorder.site, durations, covered):
        totals[layer_of_site[site]] += duration - child
    return totals


def self_time_from_intervals(recorder: SpanRecorder) -> dict[str, int] | None:
    """Self time per layer from the span intervals alone, ignoring ``parent``.

    Sweeps the spans in the order they opened, keeping a stack of the
    intervals still open, and gives every nanosecond to the innermost
    span that covers it.  Agrees with :func:`self_time_ns` exactly when
    the ``parent`` column matches how the intervals nest; returns None
    when two spans overlap without nesting.
    """
    layer_of_site = [
        layer if layer in LAYERS else "unattributed" for _, layer in recorder.sites
    ]
    layer = [layer_of_site[site] for site in recorder.site]
    starts, ends = recorder.start, recorder.end
    totals = dict.fromkeys((*LAYERS, "unattributed"), 0)
    stack: list[int] = []
    cursor = starts[0] if starts else 0

    def close_until(instant: int) -> bool:
        nonlocal cursor
        while stack and ends[stack[-1]] <= instant:
            top = stack.pop()
            if ends[top] < cursor or (stack and ends[top] > ends[stack[-1]]):
                return False
            totals[layer[top]] += ends[top] - cursor
            cursor = ends[top]
        return True

    for index, start in enumerate(starts):
        if not close_until(start):
            return None
        if stack:
            totals[layer[stack[-1]]] += start - cursor
        cursor = start
        stack.append(index)
    if not close_until(max(ends, default=0)):
        return None
    return totals


@dataclass
class Probe:
    """What the wrappers saw, besides spans: networks and boundary counts."""

    nets: list[Any] = field(default_factory=list)
    scheduled: int = 0
    cancelled: int = 0
    sweep_points: int = 0
    evaluations: int = 0
    evaluations_ok: int = 0
    timeline_entries: int = 0
    vector_evaluations: int = 0


class Patches:
    """Attribute replacements that :meth:`restore` undoes, last first."""

    _MISSING = object()

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, vars(owner).get(name, self._MISSING)))
        setattr(owner, name, value)

    def replace_everywhere(self, original: Any, value: Any) -> None:
        """Rebind every ``repro`` module global that *is* ``original``."""
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "repro":
                continue
            for attr, bound in list(vars(module).items()):
                if bound is original:
                    self.set(module, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            if original is self._MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


#: Public entry points that get a span: (module, class, methods).
ENTRY_POINTS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("repro.sim.engine", "Simulator", ("run",)),
    ("repro.channel.medium", "Medium", ("transmit", "notify_moved")),
    ("repro.phy.transceiver", "Transceiver", ("transmit", "on_signal_start", "on_signal_end")),
    ("repro.mac.dcf", "MacStation",
     ("enqueue", "on_cs_busy", "on_cs_idle", "on_rx_start", "on_rx_end", "on_tx_end")),
    ("repro.net.ip", "IpLayer", ("send",)),
    ("repro.transport.udp", "UdpSocket", ("send",)),
    ("repro.transport.tcp.connection", "TcpConnection", ("send", "on_segment")),
    ("repro.transport.tcp.sockets", "TcpProtocol", ("send_segment",)),
    ("repro.obs.ledger", "PacketLedger", ("on_record",)),
)

#: Public registrations whose callback argument gets an event span:
#: (module, class, method, index of the callback among the arguments
#: after ``self``).
CALLBACK_REGISTRATIONS: tuple[tuple[str, str, str, int], ...] = (
    ("repro.sim.timers", "Timer", "__init__", 1),
    ("repro.net.ip", "IpLayer", "register_protocol", 1),
    ("repro.mac.dcf", "MacStation", "set_receive_callback", 0),
    ("repro.transport.udp", "UdpSocket", "on_receive", 0),
)


def _class(module: str, name: str) -> Any:
    return getattr(sys.modules[module], name)


@contextmanager
def instrument(recorder: SpanRecorder, probe: Probe) -> Iterator[None]:
    """Install every wrapper for the duration of the ``with`` block."""
    import importlib

    for module, *_ in (*ENTRY_POINTS, *CALLBACK_REGISTRATIONS):
        importlib.import_module(module)
    from repro.parallel import engine
    from repro.phy.kernel import VECTOR_CUTOFF
    from repro.phy.reception import ReceptionModel
    from repro.scenario import builder, points
    from repro.sim.engine import Simulator

    patches = Patches()
    event_sites: dict[str | None, int] = {}

    def event_site(module: str | None) -> int:
        site = event_sites.get(module)
        if site is None:
            layer = layer_of(module)
            site = event_sites[module] = recorder.site_id(f"event.{layer}", layer)
        return site

    def callback_site(callback: Callable[..., Any]) -> int | None:
        """The event site of ``callback``, or None when it already opens a span."""
        if hasattr(getattr(callback, "__func__", callback), _MARK):
            return None
        owner = getattr(callback, "func", callback)  # functools.partial
        return event_site(getattr(owner, "__module__", None))

    def traced_callback(callback: Callable[..., Any]) -> Callable[..., Any]:
        site = callback_site(callback)
        return callback if site is None else recorder.spanned(callback, site)

    def traced_schedule(schedule: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(schedule)
        def traced(self: Any, when_ns: int, callback: Any, *args: Any) -> Any:
            probe.scheduled += 1
            site = callback_site(callback)
            if site is None:
                return schedule(self, when_ns, callback, *args)
            return schedule(self, when_ns, dispatch, site, callback, *args)

        return traced

    dispatch = recorder.dispatcher()
    try:
        for module, class_name, methods in ENTRY_POINTS:
            cls = _class(module, class_name)
            layer = layer_of(module)
            for name in methods:
                site = recorder.site_id(f"{layer}.{class_name}.{name}", layer)
                patches.set(cls, name, recorder.spanned(vars(cls)[name], site))

        for module, class_name, name, position in CALLBACK_REGISTRATIONS:
            cls = _class(module, class_name)
            original = vars(cls)[name]

            def register(self: Any, *args: Any, _original: Any = original,
                         _position: int = position, **kwargs: Any) -> Any:
                args = list(args)
                args[_position] = traced_callback(args[_position])
                return _original(self, *args, **kwargs)

            patches.set(cls, name, functools.wraps(original)(register))

        for name in ("schedule_slot", "schedule_slot_at"):
            patches.set(Simulator, name, traced_schedule(vars(Simulator)[name]))
        cancel_slot = Simulator.cancel_slot

        @functools.wraps(cancel_slot)
        def counted_cancel_slot(self: Any, slot: int, seq: int) -> bool:
            cancelled = cancel_slot(self, slot, seq)
            probe.cancelled += cancelled
            return cancelled

        patches.set(Simulator, "cancel_slot", counted_cancel_slot)

        evaluate_site = recorder.site_id("phy.ReceptionModel.evaluate", "phy")
        for model in ReceptionModel.__subclasses__():
            evaluate = vars(model)["evaluate"]

            def counted_evaluate(self: Any, context: Any, *args: Any,
                                 _evaluate: Any = evaluate) -> Any:
                outcome = _evaluate(self, context, *args)
                entries = len(context.interference_timeline)
                probe.evaluations += 1
                probe.evaluations_ok += outcome.success
                probe.timeline_entries += entries
                probe.vector_evaluations += entries >= VECTOR_CUTOFF
                return outcome

            patches.set(model, "evaluate", recorder.spanned(
                functools.wraps(evaluate)(counted_evaluate), evaluate_site))

        original_build = builder.build

        def captured_build(spec: Any) -> Any:
            net = original_build(spec)
            probe.nets.append(net)
            return net

        patches.replace_everywhere(original_build, recorder.spanned(
            functools.wraps(original_build)(captured_build),
            recorder.site_id("scenario.build", "scenario")))

        original_point = points.scenario_point
        point_span = recorder.spanned(original_point, recorder.site_id(
            "scenario.scenario_point", "scenario"))
        next_point = [0]

        @functools.wraps(original_point)
        def numbered_point(*args: Any, **kwargs: Any) -> Any:
            next_point[0] += 1
            recorder.current_point[0] = next_point[0]
            try:
                return point_span(*args, **kwargs)
            finally:
                recorder.current_point[0] = 0

        patches.replace_everywhere(original_point, numbered_point)

        original_sweep = engine.run_sweep

        def counted_sweep(points_: Any, *args: Any, **kwargs: Any) -> Any:
            probe.sweep_points += len(points_)
            return original_sweep(points_, *args, **kwargs)

        patches.replace_everywhere(original_sweep, recorder.spanned(
            functools.wraps(original_sweep)(counted_sweep),
            recorder.site_id("parallel.run_sweep", "parallel")))
        yield
    finally:
        patches.restore()
