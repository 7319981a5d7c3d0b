"""Shared helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper, times it with
pytest-benchmark (single round — these are simulations, not
microbenchmarks) and writes the paper-style rendering to
``benchmarks/output/<name>.txt`` so the artefacts survive the run.
The artefact path is recorded in the benchmark's ``extra_info`` so a
``--benchmark-json`` report links every timing back to the rendered
table it produced.
"""

from __future__ import annotations

from pathlib import Path

OUTPUT_DIR = Path(__file__).parent / "output"

#: The benchmark fixture of the bench currently running.  ``run_once``
#: records it so ``save_artifact`` can attach the artefact path to the
#: right benchmark without every bench threading the fixture through.
#: Benches run one at a time in a pytest process, so a plain module
#: global is safe.
_active_benchmark = None


def save_artifact(name: str, text: str, benchmark=None) -> Path:
    """Persist one bench's rendered table/figure.

    The path is recorded as ``extra_info["artifact"]`` on ``benchmark``
    (explicitly passed, or the one from the enclosing ``run_once``).
    """
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    target = benchmark if benchmark is not None else _active_benchmark
    if target is not None:
        target.extra_info["artifact"] = str(path)
    return path


def run_once(benchmark, function, *args, **kwargs):
    """Time ``function`` with a single benchmark round."""
    global _active_benchmark
    _active_benchmark = benchmark
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1,
                              iterations=1)


def save_profile(name: str, experiment: str, benchmark=None, **kwargs) -> Path:
    """Profile ``experiment`` outside the timed region and link the artefacts.

    Runs a short cProfile pass of the same registry experiment (pass
    ``duration_s``/``probes``/``seed`` to keep it cheap) and writes both
    the rendered top-N report (``<name>.profile.txt``) and the raw
    ``<name>.pstats`` dump next to the bench artefact.  Paths land in
    ``extra_info`` so a ``--benchmark-json`` report ties every timing to
    the profile that explains *where* the time went.  Like
    :func:`save_audit`, the profiled run is separate from the timed one.
    """
    from repro.profiling import profile_experiment

    OUTPUT_DIR.mkdir(exist_ok=True)
    pstats_path = OUTPUT_DIR / f"{name}.pstats"
    report = profile_experiment(experiment, output=str(pstats_path), **kwargs)
    report_path = OUTPUT_DIR / f"{name}.profile.txt"
    report_path.write_text(report)
    target = benchmark if benchmark is not None else _active_benchmark
    if target is not None:
        target.extra_info["profile_artifact"] = str(report_path)
        target.extra_info["profile_pstats"] = str(pstats_path)
    return report_path


def save_audit(name: str, experiment: str, benchmark=None, **kwargs) -> Path:
    """Audit ``experiment`` outside the timed region and link the artefact.

    Runs a short strict flight-recorder audit of the same registry
    experiment (pass ``duration_s``/``probes``/``seed`` to keep it
    cheap) and writes the drop-reason breakdown next to the bench
    artefact.  The path and verdict land in ``extra_info`` so a
    ``--benchmark-json`` report ties every timing to proof that the
    timed configuration conserves packets.  The audit run is separate
    from the timed one, so it never perturbs the measurement.
    """
    from repro.obs import audit_experiment

    outcome = audit_experiment(experiment, **kwargs)
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / f"{name}.audit.txt"
    path.write_text(outcome.render() + "\n")
    target = benchmark if benchmark is not None else _active_benchmark
    if target is not None:
        target.extra_info["audit_artifact"] = str(path)
        target.extra_info["audit_balanced"] = outcome.balanced
        target.extra_info["audit_sdus"] = sum(
            report.opened for report in outcome.reports
        )
    return path
