"""Maximum-throughput model: Equations (1) and (2), Table 2.

For a single saturated sender-receiver pair using the DCF basic access
scheme, the maximum expected throughput is the ratio of the time spent
moving application bytes to the total channel time consumed per frame
exchange::

    Th_noRTS = T_payload / (DIFS + T_DATA + SIFS + T_ACK + E[backoff])

With RTS/CTS the handshake frames and two extra SIFS gaps join the
denominator (Equation 2).

Numerical fidelity notes (validated against the paper's Table 2):

* The no-RTS/CTS column reproduces the paper to the third decimal with
  UDP+IP encapsulation (28 bytes), the MAC header at the basic rate and
  E[backoff] = 15.5 slots.  The paper ignores the propagation delay τ in
  the evaluation, so the default here does too (``include_propagation``
  turns it back on).
* The paper's RTS/CTS column is internally inconsistent: the deltas
  between its columns imply T_RTS + T_CTS ≈ 248 µs — a *single* control
  frame with PLCP at 2 Mbps — rather than the 520 µs that follows from its
  own Table 1.  :class:`RtsCtsOverheadModel` selects between the standard
  interpretation (default) and the paper-implied one so both can be
  tabulated side by side.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.airtime import AirtimeCalculator
from repro.core.encapsulation import TransportProtocol, mac_payload_bytes
from repro.core.params import Dot11bConfig, Rate
from repro.errors import ConfigurationError


class RtsCtsOverheadModel(enum.Enum):
    """How the RTS/CTS handshake overhead is charged.

    ``STANDARD`` charges T_RTS + T_CTS + 2·SIFS with both control frames
    carrying a full PLCP at the control rate (Equation 2 as written).
    ``PAPER_IMPLIED`` charges the ~268 µs that the paper's own Table 2
    deltas imply (one 112-bit control frame with PLCP at 2 Mbps + 2·SIFS).
    """

    STANDARD = "standard"
    PAPER_IMPLIED = "paper-implied"


@dataclass(frozen=True)
class ChannelOccupancy:
    """Denominator breakdown of Equation (1)/(2), in microseconds."""

    difs_us: float
    data_us: float
    sifs_total_us: float
    ack_us: float
    backoff_us: float
    rts_us: float = 0.0
    cts_us: float = 0.0
    propagation_us: float = 0.0

    @property
    def total_us(self) -> float:
        """Total channel time consumed per frame exchange."""
        return (
            self.difs_us
            + self.data_us
            + self.sifs_total_us
            + self.ack_us
            + self.backoff_us
            + self.rts_us
            + self.cts_us
            + self.propagation_us
        )


class ThroughputModel:
    """Evaluates the maximum-throughput equations for one configuration."""

    def __init__(
        self,
        config: Dot11bConfig | None = None,
        transport: TransportProtocol = TransportProtocol.UDP,
        rts_overhead: RtsCtsOverheadModel = RtsCtsOverheadModel.STANDARD,
        include_propagation: bool = False,
    ):
        self._config = config if config is not None else Dot11bConfig()
        self._airtime = AirtimeCalculator(self._config)
        self._transport = transport
        self._rts_overhead = rts_overhead
        self._include_propagation = include_propagation

    def occupancy(
        self, app_payload_bytes: int, data_rate: Rate, rts_cts: bool
    ) -> ChannelOccupancy:
        """Per-exchange channel occupancy (the denominator of Eq. 1/2)."""
        if app_payload_bytes <= 0:
            raise ConfigurationError(
                f"payload must be > 0 bytes, got {app_payload_bytes}"
            )
        mac = self._config.mac
        msdu = mac_payload_bytes(app_payload_bytes, self._transport)
        data_us = self._airtime.data_frame_us(msdu, data_rate)
        ack_us = self._airtime.ack_us()
        rts_us = cts_us = 0.0
        sifs_count = 1
        if rts_cts:
            sifs_count = 3
            if self._rts_overhead is RtsCtsOverheadModel.STANDARD:
                rts_us = self._airtime.rts_us()
                cts_us = self._airtime.cts_us()
            else:
                # The paper-implied overhead: one 112-bit control frame
                # with a full PLCP at 2 Mbps stands in for the pair.
                rts_us = self._airtime.plcp_us() + 112 / Rate.MBPS_2.mbps
                cts_us = 0.0
        propagation_us = 0.0
        if self._include_propagation:
            exchanges = 4 if rts_cts else 2
            propagation_us = exchanges * mac.propagation_delay_us
        return ChannelOccupancy(
            difs_us=mac.difs_us,
            data_us=data_us,
            sifs_total_us=sifs_count * mac.sifs_us,
            ack_us=ack_us,
            backoff_us=mac.mean_initial_backoff_us,
            rts_us=rts_us,
            cts_us=cts_us,
            propagation_us=propagation_us,
        )

    def max_throughput_bps(
        self, app_payload_bytes: int, data_rate: Rate, rts_cts: bool = False
    ) -> float:
        """Maximum expected application throughput, in bits per second."""
        occupancy = self.occupancy(app_payload_bytes, data_rate, rts_cts)
        return app_payload_bytes * 8 / (occupancy.total_us * 1e-6)
