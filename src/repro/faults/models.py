"""Fault models: timed impairments injected into a running scenario.

Each fault is a window ``[start_s, start_s + duration_s)`` during which
one impairment holds; :meth:`Fault.apply` installs it on a
:class:`~repro.scenario.ScenarioNetwork` and :meth:`Fault.revert`
removes it.  Faults are declarative data — a
:class:`~repro.faults.schedule.FaultSchedule` owns the timing.

The catalogue mirrors what the paper measured on real 802.11b hardware:
ranges that collapse for minutes at a time (deep fades, Figure 4),
external interference raising the noise floor, stations disappearing and
returning, and clocks that drift.  All randomness is drawn from the
scenario's :class:`~repro.sim.rng.RngManager`, so a seeded run with a
fault schedule is exactly as reproducible as one without.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.errors import FaultError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.node import Node
    from repro.scenario import ScenarioNetwork

#: Extra loss that puts any calibrated link far below the delivery
#: floor: a blackout, not just a fade.
BLACKOUT_LOSS_DB = 400.0


@dataclass
class Fault(abc.ABC):
    """One timed impairment.

    ``duration_s`` of ``None`` means the fault is never reverted (e.g. a
    node that crashes and stays down).
    """

    start_s: float
    duration_s: float | None

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise FaultError(f"fault start must be >= 0 s, got {self.start_s}")
        if self.duration_s is not None and (
            self.duration_s <= 0 or math.isinf(self.duration_s)
        ):
            raise FaultError(
                f"fault duration must be > 0 s and finite (or None for "
                f"permanent), got {self.duration_s}"
            )

    @property
    def end_s(self) -> float | None:
        """When the fault lifts, or ``None`` if permanent."""
        if self.duration_s is None:
            return None
        return self.start_s + self.duration_s

    @property
    def kind(self) -> str:
        """Short trace label, e.g. ``link-fade``."""
        return type(self).__name__.lower()

    def describe(self) -> str:
        """One-line human-readable summary."""
        window = (
            f"[{self.start_s:g}s, permanent)"
            if self.end_s is None
            else f"[{self.start_s:g}s, {self.end_s:g}s)"
        )
        return f"{self.kind} {window}"

    def validate(self, net: "ScenarioNetwork") -> None:
        """Check the fault targets nodes the network actually has."""

    @abc.abstractmethod
    def apply(self, net: "ScenarioNetwork") -> None:
        """Install the impairment (called at ``start_s``)."""

    @abc.abstractmethod
    def revert(self, net: "ScenarioNetwork") -> None:
        """Remove the impairment (called at ``end_s``)."""


def _check_node_index(net: "ScenarioNetwork", index: int, what: str) -> None:
    if not 0 <= index < len(net.nodes):
        raise FaultError(
            f"{what} targets node index {index}, but the network has "
            f"{len(net.nodes)} nodes"
        )


@dataclass
class LinkFade(Fault):
    """Extra path loss on one node pair — a deep-fade window.

    With the default :data:`BLACKOUT_LOSS_DB` the pair is completely
    disconnected (frames are not even delivered as interference); a
    smaller ``extra_loss_db`` leaves a lossy, marginal link like the
    outer edge of Figure 3's curves.
    """

    node_a: int = 0
    node_b: int = 1
    extra_loss_db: float = BLACKOUT_LOSS_DB
    #: Impair both directions; one-way fades model the asymmetric links
    #: the paper measured.
    bidirectional: bool = True
    _hook: Callable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.node_a == self.node_b:
            raise FaultError("link fade needs two distinct nodes")
        if self.extra_loss_db <= 0:
            raise FaultError(
                f"extra loss must be > 0 dB, got {self.extra_loss_db}"
            )

    def validate(self, net: "ScenarioNetwork") -> None:
        _check_node_index(net, self.node_a, self.kind)
        _check_node_index(net, self.node_b, self.kind)

    def apply(self, net: "ScenarioNetwork") -> None:
        phy_a = net.nodes[self.node_a].phy
        phy_b = net.nodes[self.node_b].phy
        extra = self.extra_loss_db
        both = self.bidirectional

        def hook(source, receiver, time_ns: int) -> float:
            if source is phy_a and receiver is phy_b:
                return extra
            if both and source is phy_b and receiver is phy_a:
                return extra
            return 0.0

        self._hook = hook
        net.medium.add_loss_hook(hook)

    def revert(self, net: "ScenarioNetwork") -> None:
        if self._hook is not None:
            net.medium.remove_loss_hook(self._hook)
            self._hook = None


def link_blackout(
    start_s: float, duration_s: float | None, node_a: int, node_b: int
) -> LinkFade:
    """A total link outage between two nodes (both directions)."""
    return LinkFade(
        start_s=start_s,
        duration_s=duration_s,
        node_a=node_a,
        node_b=node_b,
        extra_loss_db=BLACKOUT_LOSS_DB,
    )


@dataclass
class InterferenceBurst(Fault):
    """Noise-floor elevation at selected receivers.

    Models wide-band external interference (the paper ran its testbed in
    the 2.4 GHz ISM band, shared with everything from microwave ovens to
    other networks).  The burst degrades SINR at the victim's receiver —
    it is not carrier-sensable and never decodes.  Bursts on one node do
    not stack; the schedule rejects overlapping bursts on a shared node.
    """

    #: Victim node indices; ``None`` hits every node.
    nodes: tuple[int, ...] | None = None
    noise_rise_db: float = 30.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.noise_rise_db <= 0:
            raise FaultError(
                f"noise rise must be > 0 dB, got {self.noise_rise_db}"
            )

    def validate(self, net: "ScenarioNetwork") -> None:
        for index in self.nodes or ():
            _check_node_index(net, index, self.kind)

    def _victims(self, net: "ScenarioNetwork") -> list["Node"]:
        if self.nodes is None:
            return list(net.nodes)
        return [net.nodes[index] for index in self.nodes]

    def apply(self, net: "ScenarioNetwork") -> None:
        for node in self._victims(net):
            node.phy.set_noise_rise_db(self.noise_rise_db)

    def revert(self, net: "ScenarioNetwork") -> None:
        for node in self._victims(net):
            node.phy.set_noise_rise_db(0.0)


@dataclass
class NodeCrash(Fault):
    """A station loses power, then (optionally) reboots.

    On crash the node's radio goes deaf, the MAC queue and timers are
    flushed and every TCP connection is dropped mid-flight (see
    :meth:`repro.net.node.Node.crash`).  ``duration_s=None`` leaves it
    down for good.  ``on_reboot`` runs right after the node comes back —
    the place to restart applications (e.g. reopen a TCP connection).
    """

    node: int = 0
    on_reboot: Callable[["Node"], None] | None = None

    def validate(self, net: "ScenarioNetwork") -> None:
        _check_node_index(net, self.node, self.kind)

    def apply(self, net: "ScenarioNetwork") -> None:
        node = net.nodes[self.node]
        tracer = net.tracer
        if tracer.audit:
            # The crash context event precedes the MAC queue flush, so the
            # ledger can attribute the flood of fault-crash drops.
            tracer.emit_audit(
                net.sim.now_ns, "fault", "crash", node=node.address
            )
        node.crash()

    def revert(self, net: "ScenarioNetwork") -> None:
        node = net.nodes[self.node]
        tracer = net.tracer
        if tracer.audit:
            tracer.emit_audit(
                net.sim.now_ns, "fault", "reboot", node=node.address
            )
        node.reboot()
        if self.on_reboot is not None:
            self.on_reboot(node)


@dataclass
class ClockJitter(Fault):
    """Gaussian perturbation of one station's MAC timer delays.

    Models a cheap oscillator: every timer the MAC arms during the
    window fires ``N(0, sigma_ns)`` early or late (clamped so delays
    stay non-negative).  Draws come from the scenario's seeded RNG
    manager, so jittered runs remain bit-for-bit reproducible.
    """

    node: int = 0
    sigma_ns: float = 2000.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.sigma_ns <= 0:
            raise FaultError(f"jitter sigma must be > 0 ns, got {self.sigma_ns}")

    def validate(self, net: "ScenarioNetwork") -> None:
        _check_node_index(net, self.node, self.kind)

    def apply(self, net: "ScenarioNetwork") -> None:
        rng = net.rngs.stream(f"fault.jitter.{self.node}")
        sigma = self.sigma_ns

        def jitter(delay_ns: int) -> int:
            return max(0, delay_ns + round(rng.gauss(0.0, sigma)))

        net.nodes[self.node].mac.set_clock_jitter(jitter)

    def revert(self, net: "ScenarioNetwork") -> None:
        net.nodes[self.node].mac.set_clock_jitter(None)
