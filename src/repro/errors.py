"""Exception hierarchy for the repro library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so applications can catch library failures with a
single ``except`` clause while still letting programming errors
(``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class ConfigurationError(ReproError):
    """A parameter set or scenario description is invalid."""


class SimulationError(ReproError):
    """The simulation kernel detected an inconsistent internal state."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or on a stopped simulator."""


class WatchdogTimeout(SimulationError):
    """A sweep point overran its wall-clock deadline.

    Reported by the sweep supervisor when a point attempt runs past its
    ``--timeout`` budget and its worker process is killed.  Deriving
    from :class:`SimulationError` makes it eligible for the per-point
    retry-with-perturbed-seed policy.
    """


class AuditError(SimulationError):
    """An online invariant auditor or the packet ledger found a violation.

    Raised by :mod:`repro.obs` components while the simulation runs
    (airtime over-occupancy, NAV going negative, TCP sequence numbers
    moving backwards) or at finalisation when the packet-conservation
    ledger does not balance.  The message always carries the simulated
    time of the violation.
    """


class FaultError(ReproError):
    """A fault schedule is invalid or targets an incompatible network."""


class MediumError(SimulationError):
    """The wireless medium's signal bookkeeping was violated."""


class MacError(SimulationError):
    """The DCF state machine reached an impossible transition."""


class TransportError(ReproError):
    """A transport-layer protocol violation (bad segment, closed socket)."""


class ExperimentError(ReproError):
    """An experiment could not be built or produced no usable output."""


class SweepInterrupted(ReproError):
    """A supervised sweep was stopped by SIGINT/SIGTERM before finishing.

    Raised by :mod:`repro.parallel.supervisor` after a graceful shutdown.
    Every point that finished is already in the result cache, so running
    the same command again with the same cache executes only the rest;
    without a cache the finished points were not kept, and the message
    says which case applies.  Deliberately *not* a
    :class:`SimulationError` — an interrupt must never trigger the
    retry-with-perturbed-seed policy or degrade into a failure record;
    it propagates to the CLI, which exits with code 130.
    """
