"""The composite channel gain model: path loss + shadowing + weather.

The total loss of a link at time t is::

    loss = PL(d) + S_link + F + W(t)

where ``PL`` is the deterministic path-loss model, ``S_link`` a static
log-normal shadowing term drawn once per (directed) link, ``F`` a fast
log-normal term drawn per frame, and ``W`` the slow weather process.  The
paper's observation that the channel is *asymmetric* is captured by
drawing ``S_link`` independently per direction (``asymmetric=True``).
"""

from __future__ import annotations

import math
import random
from typing import Hashable

from repro.channel.propagation import LogDistancePathLoss, PropagationModel
from repro.channel.weather import WeatherProcess
from repro.errors import ConfigurationError

Position = tuple[float, float]


def distance_m(a: Position, b: Position) -> float:
    """Euclidean distance between two positions in metres."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


class ChannelModel:
    """Computes per-frame link losses for the medium.

    Parameters
    ----------
    propagation:
        Deterministic path-loss model; defaults to the Table-3-calibrated
        log-distance model.
    fast_sigma_db:
        Standard deviation of the per-frame shadowing term.  This is what
        turns the hard range edge into the gradual loss-vs-distance curves
        of Figure 3.
    static_sigma_db:
        Standard deviation of the once-per-link shadowing term.
    asymmetric:
        Draw the static term independently for each direction of a link
        (the paper reports asymmetric propagation).
    rng:
        Random stream for all shadowing draws.
    weather:
        Optional slow variation; see :mod:`repro.channel.weather`.
    """

    def __init__(
        self,
        propagation: PropagationModel | None = None,
        fast_sigma_db: float = 2.5,
        static_sigma_db: float = 0.0,
        asymmetric: bool = True,
        rng: random.Random | None = None,
        weather: WeatherProcess | None = None,
    ):
        if fast_sigma_db < 0 or static_sigma_db < 0:
            raise ConfigurationError("shadowing sigmas must be >= 0 dB")
        self.propagation = (
            propagation if propagation is not None else LogDistancePathLoss.calibrated()
        )
        self.fast_sigma_db = fast_sigma_db
        self.static_sigma_db = static_sigma_db
        self.asymmetric = asymmetric
        self._rng = rng if rng is not None else random.Random(0)
        self.weather = weather
        self._static_db: dict[Hashable, float] = {}

    def mean_loss_db(self, link_distance_m: float) -> float:
        """The deterministic loss component (used for range solving)."""
        return self.propagation.path_loss_db(link_distance_m)

    def _static_link_db(self, tx_key: Hashable, rx_key: Hashable) -> float:
        if self.static_sigma_db == 0.0:
            return 0.0
        if self.asymmetric:
            key: Hashable = (tx_key, rx_key)
        else:
            key = frozenset((tx_key, rx_key))
        if key not in self._static_db:
            self._static_db[key] = self._rng.gauss(0.0, self.static_sigma_db)
        return self._static_db[key]

    def base_loss_db(
        self,
        tx_position: Position,
        rx_position: Position,
        tx_key: Hashable,
        rx_key: Hashable,
    ) -> float:
        """The loss components that are constant while positions hold.

        Path loss is pure geometry and the static shadowing term is
        drawn once per link, so the medium caches this sum per
        (source, receiver) pair and recomputes it only when a position
        tuple is replaced (mobility tick, placement change).
        """
        return self.base_loss_at_db(
            distance_m(tx_position, rx_position), tx_key, rx_key
        )

    def base_loss_at_db(
        self, link_distance_m: float, tx_key: Hashable, rx_key: Hashable
    ) -> float:
        """:meth:`base_loss_db` for a link whose length is already known."""
        loss = self.propagation.path_loss_db(link_distance_m)
        return loss + self._static_link_db(tx_key, rx_key)

    def variable_loss_db(self, time_ns: int) -> float:
        """The per-frame loss components (fast shadowing + weather)."""
        loss = 0.0
        if self.fast_sigma_db > 0.0:
            loss = self._rng.gauss(0.0, self.fast_sigma_db)
        if self.weather is not None:
            loss += self.weather.offset_db(time_ns)
        return loss

    def loss_db(
        self,
        tx_position: Position,
        rx_position: Position,
        tx_key: Hashable,
        rx_key: Hashable,
        time_ns: int,
    ) -> float:
        """Total link loss for one frame transmitted at ``time_ns``."""
        return self.base_loss_db(
            tx_position, rx_position, tx_key, rx_key
        ) + self.variable_loss_db(time_ns)
