"""repro — a reproduction of *IEEE 802.11 Ad Hoc Networks: Performance
Measurements* (Anastasi, Borgia, Conti, Gregori; ICDCS Workshops 2003).

The package provides, as importable building blocks:

* the paper's **analytic models** (:mod:`repro.core`): the Table-1
  parameter sets, the Figure-1 encapsulation stack, the Equations-(1)/(2)
  maximum-throughput model and link-budget range estimation;
* a **full discrete-event simulator of IEEE 802.11b ad hoc networks**
  that substitutes for the paper's outdoor test-bed: calibrated radio
  channel (:mod:`repro.channel`), multirate PHY (:mod:`repro.phy`), DCF
  MAC (:mod:`repro.mac`), IP/UDP/TCP stack (:mod:`repro.net`,
  :mod:`repro.transport`) and traffic generators (:mod:`repro.apps`);
* an **experiment harness** (:mod:`repro.experiments`) that regenerates
  every table and figure of the paper's evaluation, plus measurement
  utilities (:mod:`repro.analysis`).

Quick start::

    from repro import build_network, CbrSource, UdpSink, Rate

    net = build_network([0, 10], data_rate=Rate.MBPS_11)
    sink = UdpSink(net[1], port=5001)
    CbrSource(net[0], dst=2, dst_port=5001, payload_bytes=512)
    net.run(2.0)
    print(sink.throughput_bps(2.0) / 1e6, "Mbps")
"""

from repro.core.params import (
    ALL_RATES,
    BASIC_RATE_SET,
    Dot11bConfig,
    HeaderRatePolicy,
    MacParameters,
    PlcpParameters,
    PlcpPreamble,
    Rate,
)
from repro.core.throughput_model import (
    RtsCtsOverheadModel,
    ThroughputModel,
)
from repro.core.encapsulation import TransportProtocol, mac_payload_bytes
from repro.channel.propagation import (
    FreeSpacePathLoss,
    LogDistancePathLoss,
    TwoRayGroundPathLoss,
)
from repro.channel.shadowing import ChannelModel
from repro.channel.weather import DayConditions, WeatherProcess
from repro.channel.medium import Medium
from repro.channel.mobility import LinearMobility, walk_away
from repro.phy.radio import RadioParameters
from repro.phy.transceiver import Transceiver
from repro.mac.dcf import AckPolicy, MacConfig, MacStation
from repro.mac.ratecontrol import ArfConfig, ArfRateController, FixedRate
from repro.net.node import Node, NodeStackConfig
from repro.analysis.tracefile import TraceWriter, read_trace
from repro.obs.auditors import AirtimeAuditor
from repro.apps.onoff import OnOffSource
from repro.experiments.replication import replicate
from repro.transport.tcp import TcpConfig
from repro.apps.bulk import BulkTcpReceiver, BulkTcpSender
from repro.apps.cbr import CbrSource
from repro.apps.sink import UdpSink
from repro.sim.engine import Simulator
from repro.sim.rng import RngManager
from repro.scenario import (
    FaultSpec,
    FlowHandle,
    FlowSpec,
    MobilitySpec,
    ScenarioNetwork,
    ScenarioSpec,
    StackSpec,
    SweepAxis,
    SweepSpec,
    TopologySpec,
    TrafficSpec,
    WeatherSpec,
    apply_overrides,
    build,
    build_network,
    run_scenarios,
)

__version__ = "1.0.0"

__all__ = [
    "ALL_RATES",
    "AckPolicy",
    "AirtimeAuditor",
    "ArfConfig",
    "ArfRateController",
    "BASIC_RATE_SET",
    "FixedRate",
    "LinearMobility",
    "OnOffSource",
    "TraceWriter",
    "read_trace",
    "replicate",
    "walk_away",
    "BulkTcpReceiver",
    "BulkTcpSender",
    "CbrSource",
    "ChannelModel",
    "DayConditions",
    "Dot11bConfig",
    "FaultSpec",
    "FlowHandle",
    "FlowSpec",
    "FreeSpacePathLoss",
    "HeaderRatePolicy",
    "LogDistancePathLoss",
    "MacConfig",
    "MacParameters",
    "MacStation",
    "Medium",
    "MobilitySpec",
    "Node",
    "NodeStackConfig",
    "PlcpParameters",
    "PlcpPreamble",
    "RadioParameters",
    "Rate",
    "RngManager",
    "RtsCtsOverheadModel",
    "ScenarioNetwork",
    "ScenarioSpec",
    "Simulator",
    "StackSpec",
    "SweepAxis",
    "SweepSpec",
    "TcpConfig",
    "ThroughputModel",
    "TopologySpec",
    "TrafficSpec",
    "Transceiver",
    "TransportProtocol",
    "TwoRayGroundPathLoss",
    "UdpSink",
    "WeatherProcess",
    "WeatherSpec",
    "apply_overrides",
    "build",
    "build_network",
    "mac_payload_bytes",
    "run_scenarios",
]
