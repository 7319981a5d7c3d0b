"""Hardened experiment runner: one failure record per experiment.

``run_suite`` runs a set of registered experiments so that one failure
can never take down the batch:

* each experiment runs once, on the calling thread, with its
  :class:`RunnerConfig` handed to every sweep it makes.  The sweep
  point is the only unit that is retried, timed out or isolated
  (:mod:`repro.parallel.supervisor`): a point that raises a
  :class:`~repro.errors.SimulationError`, overruns its wall-clock
  **timeout** or crashes its worker is **retried with a perturbed
  seed**, and a deadline is enforced by killing the worker process;
* an exception that escapes the experiment — a point that exhausted
  its retries, or any other error — degrades to a structured
  :class:`ExperimentResult` failure record (``timeout`` for a
  :class:`~repro.errors.WatchdogTimeout`, ``failed`` otherwise) while
  the rest of the suite completes;
* the :class:`SuiteReport` renders both a human-readable summary and a
  machine-readable JSON document.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.errors import SweepInterrupted, WatchdogTimeout
from repro.experiments.registry import EXPERIMENTS, Experiment

@dataclass(frozen=True)
class RunnerConfig:
    """Robustness policy for one suite run.

    The same object travels from the CLI through ``run_experiment``
    into every sweep an experiment makes (``policy=`` on
    :func:`repro.parallel.run_sweep`), so timeout, retries and the
    failure policy are configured exactly once, and all of them apply
    per sweep point.
    """

    #: Wall-clock budget per sweep point attempt; ``None`` disables the
    #: timeout.  With a budget, every point runs in a worker process
    #: that is killed at its deadline.
    timeout_s: float | None = None
    #: Extra attempts per sweep point after a ``SimulationError``, a
    #: timeout or a worker crash (0 = never retry).  Each retry runs at
    #: once, at a seed perturbed by
    #: :data:`~repro.parallel.supervisor.RETRY_SEED_STEP`.
    max_retries: int = 1
    #: Sweep failure policy: ``"raise"`` aborts on the first point that
    #: exhausts its retries, ``"skip"`` substitutes ``None`` for failed
    #: points, ``"degrade"`` substitutes typed
    #: :class:`~repro.parallel.supervisor.PointFailure` records; the
    #: latter two complete the sweep and print a report.
    on_error: str = "raise"


@dataclass
class ExperimentResult:
    """Structured outcome of one experiment (success or failure)."""

    name: str
    status: str  # "ok" | "failed" | "timeout"
    output: str | None = None
    error: str | None = None
    error_type: str | None = None
    elapsed_s: float = 0.0
    traceback: str | None = None

    @property
    def ok(self) -> bool:
        """True for a clean run."""
        return self.status == "ok"

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (output text included only on success)."""
        return {
            "name": self.name,
            "status": self.status,
            "output": self.output,
            "error": self.error,
            "error_type": self.error_type,
            "elapsed_s": round(self.elapsed_s, 3),
            "traceback": self.traceback,
        }


@dataclass
class SuiteReport:
    """Everything a batch run produced."""

    results: list[ExperimentResult]
    elapsed_s: float
    config: RunnerConfig

    @property
    def succeeded(self) -> list[ExperimentResult]:
        """Results that ran clean."""
        return [result for result in self.results if result.ok]

    @property
    def failed(self) -> list[ExperimentResult]:
        """Results that degraded to failure records."""
        return [result for result in self.results if not result.ok]

    @property
    def all_ok(self) -> bool:
        """True when every experiment succeeded."""
        return not self.failed

    def to_json(self) -> str:
        """Machine-readable report."""
        return json.dumps(
            {
                "elapsed_s": round(self.elapsed_s, 3),
                "total": len(self.results),
                "succeeded": len(self.succeeded),
                "failed": len(self.failed),
                "timeout_s": self.config.timeout_s,
                "max_retries": self.config.max_retries,
                "on_error": self.config.on_error,
                "results": [result.to_dict() for result in self.results],
            },
            indent=2,
        )

    def format_summary(self) -> str:
        """Human-readable one-line-per-experiment summary."""
        lines = [
            f"suite: {len(self.succeeded)}/{len(self.results)} experiments "
            f"ok in {self.elapsed_s:.1f}s wall clock"
        ]
        for result in self.results:
            if result.ok:
                detail = f"ok in {result.elapsed_s:.1f}s"
            else:
                headline = (result.error or "").partition("\n")[0]
                detail = f"{result.status}: {headline}"
            lines.append(f"  {result.name:16} {detail}")
        return "\n".join(lines)


def run_experiment(
    name: str,
    seed: int = 1,
    duration_s: float = 10.0,
    probes: int = 200,
    config: RunnerConfig | None = None,
    experiments: Mapping[str, Experiment] | None = None,
    jobs: int = 1,
    cache=None,
    overrides: Mapping[str, Any] | None = None,
) -> ExperimentResult:
    """Run one experiment once under the robustness policy.

    Never raises for experiment failures: lookup errors, crashes,
    timeouts and exhausted retries all come back as failure records.
    A graceful SIGINT/SIGTERM shutdown is not a failure:
    :class:`~repro.errors.SweepInterrupted` propagates so the CLI can
    exit 130; the finished points are already in the cache.

    ``jobs``/``cache`` flow into sweep-based experiments, which fan
    their independent points across a process pool and a
    content-addressed result cache (:mod:`repro.parallel`).  The
    ``config`` policy travels with them: each point is retried and
    timed out on its own.

    ``overrides`` are user-supplied experiment parameters (the CLI's
    ``--set key=value``); an override the experiment does not declare
    produces a failure record listing the accepted keys.
    """
    if config is None:
        config = RunnerConfig()
    registry = experiments if experiments is not None else EXPERIMENTS
    started = time.monotonic()
    result = ExperimentResult(name=name, status="failed")
    experiment = registry.get(name)
    if experiment is None:
        result.error = f"unknown experiment {name!r}; valid: {sorted(registry)}"
        result.error_type = "ExperimentError"
        return result
    try:
        result.output = experiment.invoke(
            overrides,
            seed=seed,
            duration_s=duration_s,
            probes=probes,
            jobs=jobs,
            cache=cache,
            policy=config,
        )
        result.status = "ok"
    except SweepInterrupted:
        raise
    except Exception as error:  # noqa: BLE001 - isolation boundary
        result.status = (
            "timeout" if isinstance(error, WatchdogTimeout) else "failed"
        )
        result.error = str(error) or type(error).__name__
        result.error_type = type(error).__name__
        result.traceback = traceback.format_exc()
    result.elapsed_s = time.monotonic() - started
    return result


def run_suite(
    names: Sequence[str],
    seed: int = 1,
    duration_s: float = 10.0,
    probes: int = 200,
    config: RunnerConfig | None = None,
    experiments: Mapping[str, Experiment] | None = None,
    on_result: Callable[[ExperimentResult], None] | None = None,
    jobs: int = 1,
    cache=None,
    overrides: Mapping[str, Any] | None = None,
) -> SuiteReport:
    """Run a batch of experiments with per-experiment isolation.

    ``on_result`` (if given) observes each result as it completes —
    the CLI uses it to stream output while the suite continues.
    """
    if config is None:
        config = RunnerConfig()
    started = time.monotonic()
    results = []
    for name in names:
        result = run_experiment(
            name,
            seed=seed,
            duration_s=duration_s,
            probes=probes,
            config=config,
            experiments=experiments,
            jobs=jobs,
            cache=cache,
            overrides=overrides,
        )
        results.append(result)
        if on_result is not None:
            on_result(result)
    return SuiteReport(
        results=results,
        elapsed_s=time.monotonic() - started,
        config=config,
    )
