"""Per-frame channel occupancy (airtime) at each 802.11b rate.

This calculator is the single source of truth for frame durations: both the
analytic throughput model (Equations 1 and 2) and the discrete-event
simulator derive every transmission time from it, which is what makes the
simulated UDP throughput converge to the analytic bound (Figure 2).

The decomposition follows the paper:

* the PLCP preamble + header (``PHYhdr``) are sent at the PLCP rates
  (1 Mbps for the long format);
* the MAC header + FCS (272 bits) at the header rate chosen by the
  configured :class:`~repro.core.params.HeaderRatePolicy`;
* the MAC payload at the NIC data rate;
* control frames (RTS/CTS/ACK) entirely at the control (basic) rate.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.core.params import Dot11bConfig, Rate
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class FrameAirtime:
    """Breakdown of one frame's channel time, in microseconds."""

    plcp_us: float
    header_us: float
    payload_us: float

    @property
    def total_us(self) -> float:
        """Total channel occupancy of the frame."""
        return self.plcp_us + self.header_us + self.payload_us


class AirtimeCalculator:
    """Computes frame durations for one :class:`Dot11bConfig`."""

    def __init__(self, config: Dot11bConfig | None = None):
        self._config = config if config is not None else Dot11bConfig()
        #: Interning table for :mod:`repro.phy.plans`: one frozen
        #: TransmissionPlan per distinct frame shape built against this
        #: calculator.  Keys are ``(msdu_bytes, rate)`` for data frames
        #: and ``(name, body_bits, rate)`` for control frames.
        self.plan_cache: dict[tuple, "object"] = {}

    @property
    def config(self) -> Dot11bConfig:
        """The protocol configuration durations are computed for."""
        return self._config

    def plcp_us(self) -> float:
        """PLCP preamble + header duration (192 µs for the long format)."""
        return self._config.plcp.duration_us

    def data_frame(self, mac_payload_bytes: int, data_rate: Rate) -> FrameAirtime:
        """Airtime of a MAC data frame carrying ``mac_payload_bytes``.

        ``mac_payload_bytes`` is the MSDU (IP datagram) size; the MAC
        header + FCS are added here.
        """
        if mac_payload_bytes < 0:
            raise ConfigurationError(
                f"MAC payload must be >= 0 bytes, got {mac_payload_bytes}"
            )
        cfg = self._config
        header_rate = cfg.header_rate_policy.header_rate(data_rate)
        return FrameAirtime(
            plcp_us=self.plcp_us(),
            header_us=cfg.mac.mac_header_bits / header_rate.mbps,
            payload_us=mac_payload_bytes * 8 / data_rate.mbps,
        )

    def data_frame_us(self, mac_payload_bytes: int, data_rate: Rate) -> float:
        """Total duration of a data frame (``T_DATA`` in the paper)."""
        return self.data_frame(mac_payload_bytes, data_rate).total_us

    def _control_frame_us(self, body_bits: int, rate: Rate | None) -> float:
        if rate is None:
            rate = self._config.control_rate
        return self.plcp_us() + body_bits / rate.mbps

    def ack_us(self, rate: Rate | None = None) -> float:
        """Duration of an ACK frame (``T_ACK``).

        Control frames use the configured control rate regardless of the
        data rate — the paper's Table 2 keeps the ACK at 2 Mbps even for
        1 Mbps data sessions (2 Mbps is in the basic rate set).  Pass
        ``rate`` to override.
        """
        return self._control_frame_us(self._config.mac.ack_bits, rate)

    def rts_us(self, rate: Rate | None = None) -> float:
        """Duration of an RTS frame (``T_RTS``)."""
        return self._control_frame_us(self._config.mac.rts_bits, rate)

    def cts_us(self, rate: Rate | None = None) -> float:
        """Duration of a CTS frame (``T_CTS``)."""
        return self._control_frame_us(self._config.mac.cts_bits, rate)

    def payload_only_us(self, app_payload_bytes: int, data_rate: Rate) -> float:
        """``T_payload``: time for the bare application bytes at the data rate."""
        if app_payload_bytes < 0:
            raise ConfigurationError(
                f"application payload must be >= 0 bytes, got {app_payload_bytes}"
            )
        return app_payload_bytes * 8 / data_rate.mbps


#: Dot11bConfig -> the calculator its MAC stations share.  Weak values:
#: a calculator, with its interned plans and the reception tables they
#: carry, lives only as long as some station still uses it.
_SHARED: weakref.WeakValueDictionary[Dot11bConfig, AirtimeCalculator] = (
    weakref.WeakValueDictionary()
)


def shared_calculator(config: Dot11bConfig) -> AirtimeCalculator:
    """The one calculator for ``config`` that MAC stations share.

    Every station of a configuration then interns the same frame plans.
    Plans and durations are values of the configuration alone, so
    sharing changes no duration.
    """
    calculator = _SHARED.get(config)
    if calculator is None:
        calculator = AirtimeCalculator(config)
        _SHARED[config] = calculator
    return calculator
