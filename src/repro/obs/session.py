"""Session-scoped audit collection.

Networks are built through :func:`repro.scenario.points.scenario_point`,
or by calling :func:`repro.scenario.builder.build` directly
(:func:`repro.experiments.multihop.scale_point`, which only the
benchmarks call, does).  An :class:`AuditCollector` covers both: while
one is active, every network the builder constructs gets a strict
:class:`~repro.obs.recorder.FlightRecorder`, and recorders that were
never finalized (networks whose simulator was not shut down) are swept
up when the collector exits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.recorder import AuditReport, FlightRecorder

_ACTIVE: "AuditCollector | None" = None


def active_collector() -> "AuditCollector | None":
    """The collector in force, if any (consulted by the builder)."""
    return _ACTIVE


class AuditCollector:
    """Context manager that audits every network built inside it."""

    def __init__(self, strict: bool = True):
        self.strict = strict
        self.recorders: list["FlightRecorder"] = []
        self.reports: list["AuditReport"] = []

    def __enter__(self) -> "AuditCollector":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("audit collectors do not nest")
        _ACTIVE = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE
        _ACTIVE = None
        if exc_type is not None:
            return  # don't mask the in-flight exception with audit noise
        for recorder in self.recorders:
            self.reports.append(recorder.finalize())

    def register(self, recorder: "FlightRecorder") -> None:
        """Track a recorder for end-of-context finalization."""
        self.recorders.append(recorder)
