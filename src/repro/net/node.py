"""Full-stack node composition.

A :class:`Node` wires one station's whole stack together: PHY transceiver
on the shared medium, DCF MAC, IP layer with static routing, and the UDP
and TCP protocol objects.  Experiments construct nodes and then attach
applications from :mod:`repro.apps`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.channel.medium import Medium
from repro.channel.shadowing import Position
from repro.core.params import Dot11bConfig, Rate
from repro.mac.dcf import DEFAULT_QUEUE_FRAMES, AckPolicy, MacConfig, MacStation
from repro.mac.ratecontrol import ArfConfig, ArfRateController, RateController
from repro.net.ip import IpLayer
from repro.net.routing import StaticRouting
from repro.phy.radio import RadioParameters
from repro.phy.reception import ReceptionModel
from repro.phy.transceiver import Transceiver
from repro.sim.engine import Simulator
from repro.sim.tracing import Tracer
from repro.transport.tcp.connection import TcpConfig
from repro.transport.tcp.sockets import TcpProtocol
from repro.transport.udp import UdpProtocol


@dataclass(frozen=True)
class NodeStackConfig:
    """Everything configurable about a node's protocol stack."""

    data_rate: Rate = Rate.MBPS_11
    dot11: Dot11bConfig = field(default_factory=Dot11bConfig)
    rts_enabled: bool = False
    ack_policy: AckPolicy = AckPolicy.ALWAYS
    radio: RadioParameters = field(default_factory=RadioParameters.calibrated)
    tcp: TcpConfig = field(default_factory=TcpConfig)
    max_queue_frames: int = DEFAULT_QUEUE_FRAMES
    #: Enable ARF dynamic rate switching (paper §2) instead of the fixed
    #: ``data_rate``.  Each node gets its own controller instance.
    arf: ArfConfig | None = None
    #: MAC fragmentation threshold; ``None`` disables fragmentation.
    fragmentation_threshold_bytes: int | None = None


class Node:
    """One complete station."""

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        address: int,
        position_m: Position,
        stack: NodeStackConfig | None = None,
        rng: random.Random | None = None,
        tracer: Tracer | None = None,
        reception: ReceptionModel | None = None,
    ):
        if stack is None:
            stack = NodeStackConfig()
        if rng is None:
            rng = random.Random(address)
        if tracer is None:
            tracer = Tracer()
        self.sim = sim
        self.address = address
        self.stack = stack
        self.phy = Transceiver(
            sim,
            medium,
            stack.radio,
            name=f"n{address}",
            position_m=position_m,
            reception=reception,
            rng=rng,
            tracer=tracer,
        )
        self.rate_controller: RateController | None = (
            ArfRateController(stack.arf) if stack.arf is not None else None
        )
        self.mac = MacStation(
            sim,
            self.phy,
            MacConfig(
                address=address,
                data_rate=stack.data_rate,
                dot11=stack.dot11,
                rts_enabled=stack.rts_enabled,
                ack_policy=stack.ack_policy,
                max_queue_frames=stack.max_queue_frames,
                fragmentation_threshold_bytes=stack.fragmentation_threshold_bytes,
            ),
            rng=rng,
            tracer=tracer,
            rate_controller=self.rate_controller,
        )
        self.routing = StaticRouting(address)
        self.ip = IpLayer(self.mac, self.routing)
        self.udp = UdpProtocol(self.ip)
        self.tcp = TcpProtocol(sim, self.ip, stack.tcp, tracer=tracer)
        self._alive = True

    @property
    def position_m(self) -> Position:
        """The node's position on the field."""
        return self.phy.position_m

    @property
    def alive(self) -> bool:
        """False between :meth:`crash` and :meth:`reboot`."""
        return self._alive

    def crash(self) -> None:
        """Power the station down mid-run (fault injection).

        The radio goes deaf, the MAC queue and all pending MAC timers
        are flushed, and every TCP connection's in-flight state is
        dropped without a FIN — the full amnesia of a power failure.
        Applications holding references to this node keep running; their
        sends fail at the MAC until :meth:`reboot`.
        """
        if not self._alive:
            return
        self._alive = False
        self.phy.power_off()
        self.mac.shutdown()
        self.tcp.abort_all()

    def reboot(self) -> None:
        """Bring a crashed station back with factory-fresh MAC/PHY state."""
        if self._alive:
            return
        self._alive = True
        self.phy.power_on()
        self.mac.restart()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Node({self.address} @ {self.position_m})"
