"""Command-line front-end: ``repro80211 <experiment>``.

Regenerates the paper's tables and figures from the terminal::

    repro80211 list
    repro80211 table2
    repro80211 figure3 --probes 300 --seed 7
    repro80211 table3 --jobs 4                  # fan sweep points across 4 workers
    repro80211 figure3 --no-cache               # force re-simulation
    repro80211 list --clear-cache               # drop every cached sweep point
    repro80211 profile figure3 --probes 100     # cProfile top-N report
    repro80211 profile figure7 --sort tottime --output figure7.pstats
    repro80211 audit figure7 --duration 2       # packet ledger + invariant audit
    repro80211 all --duration 5 --probes 100 --timeout 120 --report run.json
    repro80211 lint --format json               # simulator static analysis
    repro80211 figure2 --set duration_s=1.5     # override a declared parameter
    repro80211 spec scenario.json               # run a ScenarioSpec file
    repro80211 spec scenario.json --set seed=7 --set stack.rts_enabled=true

``--set key=value`` feeds the experiment's declared parameters (or, for
``spec``, any dotted path into the scenario document); values parse as
JSON with a plain-string fallback.  Unknown keys are rejected with the
accepted ones listed — nothing is silently ignored.

Every run goes through the hardened experiment runner: a failing or
hung experiment produces a one-line error and a structured failure
record instead of a traceback, and the rest of an ``all`` batch still
completes.  Sweep-shaped experiments fan their independent points
across ``--jobs`` worker processes and reuse results from the
content-addressed cache under ``~/.cache/repro-sweeps`` (or
``--cache-dir``); output is bit-identical whatever the worker count or
cache temperature.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, Sequence

from repro.errors import SweepInterrupted
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.runner import ExperimentResult, RunnerConfig, run_suite
from repro.parallel import SweepCache


def _positive_seconds(text: str) -> float:
    """argparse type of ``--timeout``: a finite number of seconds > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(
            f"expected a finite number of seconds > 0, got {text!r}"
        )
    return value


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """argparse type of an integer flag that must be >= ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {minimum}, got {text!r}"
            )
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro80211",
        description=(
            "Reproduce the tables and figures of 'IEEE 802.11 Ad Hoc "
            "Networks: Performance Measurements' (ICDCS-W 2003)."
        ),
    )
    parser.add_argument(
        "experiment",
        help=(
            "experiment name, 'list' to enumerate, 'all' for everything, "
            "'profile' (with an experiment name) for a cProfile report, "
            "'audit' (with an experiment name) to run it under the "
            "flight-recorder packet ledger and invariant auditors, "
            "'spec' (with a JSON file) to run a declarative scenario, or "
            "'lint' for the simulator static-analysis checks"
        ),
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help=(
            "experiment to profile/audit (with 'profile'/'audit') or "
            "scenario spec file (with 'spec')"
        ),
    )
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        dest="overrides",
        metavar="KEY=VALUE",
        help=(
            "override an experiment parameter (repeatable); with 'spec', a "
            "dotted path into the scenario document, e.g. "
            "stack.rts_enabled=true.  Unknown keys are rejected."
        ),
    )
    parser.add_argument(
        "--extract",
        default="repro.scenario.points:flow_throughputs_kbps",
        metavar="PKG.MOD:FN",
        help=(
            "metric extractor for the 'spec' command (default: per-flow "
            "throughput rows)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="master random seed (default 1)"
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=10.0,
        help="simulated seconds per dynamic run (default 10)",
    )
    parser.add_argument(
        "--probes",
        type=int,
        default=200,
        help="probe frames per distance point in range sweeps (default 200)",
    )
    parser.add_argument(
        "--jobs",
        type=_int_at_least(1),
        default=1,
        metavar="N",
        help=(
            "worker processes for sweep points (default 1 = in-process "
            "serial; results are identical either way)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help=(
            "sweep result cache directory (default ~/.cache/repro-sweeps "
            "or $REPRO_SWEEP_CACHE_DIR)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the sweep result cache (neither read nor write)",
    )
    parser.add_argument(
        "--clear-cache",
        action="store_true",
        help="delete all cached sweep results before running",
    )
    parser.add_argument(
        "--timeout",
        type=_positive_seconds,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock budget per sweep point attempt; with a budget, "
            "points run in worker processes, which are killed at the "
            "deadline (default: none)"
        ),
    )
    parser.add_argument(
        "--retries",
        "--max-retries",
        dest="retries",
        type=_int_at_least(0),
        default=1,
        metavar="N",
        help=(
            "reseeded retries per sweep point after a simulation-kernel "
            "failure, timeout or worker crash, each run at once "
            "(default 1)"
        ),
    )
    parser.add_argument(
        "--on-error",
        choices=("raise", "skip", "degrade"),
        default="raise",
        dest="on_error",
        help=(
            "sweep failure policy once retries are exhausted: raise "
            "aborts (default), skip/degrade complete the sweep with "
            "None/typed failure records at the failed points and "
            "print a sweep report"
        ),
    )
    parser.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="also write a machine-readable JSON report to PATH",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE.pstats",
        help=(
            "(profile) also dump the raw cProfile stats to FILE.pstats "
            "for archiving or snakeviz"
        ),
    )
    parser.add_argument(
        "--sort",
        choices=("both", "cumulative", "tottime"),
        default="both",
        help="(profile) report ordering (default: both sections)",
    )
    return parser


def _list_experiments() -> str:
    lines = ["available experiments:"]
    width = max(len(name) for name in EXPERIMENTS)
    for name in sorted(EXPERIMENTS):
        lines.append(f"  {name:{width}}  {EXPERIMENTS[name].description}")
    lines.append(f"  {'all':{width}}  run everything above in sequence")
    return "\n".join(lines)


def _print_result(result: ExperimentResult) -> None:
    if result.ok:
        print(result.output)
        print(f"[{result.name} completed in {result.elapsed_s:.1f}s wall clock]")
        print()
    else:
        # One line: a worker traceback stays in the --report document.
        headline = (result.error or "").partition("\n")[0]
        print(f"error: {result.name}: {headline}", file=sys.stderr)


def _parse_overrides(pairs: Sequence[str]) -> dict:
    """``KEY=VALUE`` strings -> override dict (values parse as JSON)."""
    import json

    from repro.errors import ExperimentError

    overrides = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ExperimentError(
                f"malformed --set {pair!r}; expected KEY=VALUE"
            )
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


def _run_spec(args: argparse.Namespace, cache, config: RunnerConfig) -> int:
    """Run one declarative scenario from a JSON spec file."""
    import json

    from repro.scenario import ScenarioSpec, apply_overrides, run_scenarios

    if args.target is None:
        print("error: spec needs a scenario file path", file=sys.stderr)
        return 2
    try:
        with open(args.target, encoding="utf-8") as handle:
            spec = ScenarioSpec.from_json(handle.read())
        overrides = _parse_overrides(args.overrides)
        if overrides:
            spec = apply_overrides(spec, overrides)
        [value] = run_scenarios(
            [spec],
            extract=args.extract,
            jobs=args.jobs,
            cache=cache,
            policy=config,
        )
    except SweepInterrupted as error:
        print(f"interrupted: {error}", file=sys.stderr)
        return 130
    except Exception as error:  # noqa: BLE001 - one-line CLI surface
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"scenario {spec.name}: {args.extract}")
    print(json.dumps(value, indent=2, sort_keys=True, default=str))
    return 0


def _audit(args: argparse.Namespace) -> int:
    """Run one experiment with the flight recorder on and print the audit."""
    from repro.obs import audit_experiment

    if args.target is None:
        print("error: audit needs an experiment name", file=sys.stderr)
        return 2
    try:
        outcome = audit_experiment(
            args.target,
            overrides=_parse_overrides(args.overrides),
            duration_s=args.duration,
            seed=args.seed,
            probes=args.probes,
        )
    except BrokenPipeError:  # pragma: no cover - output piped to head
        return 0
    except Exception as error:  # noqa: BLE001 - one-line CLI surface
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(outcome.render())
    return 0


def _profile(args: argparse.Namespace) -> int:
    from repro.profiling import profile_experiment

    if args.target is None:
        print("error: profile needs an experiment name", file=sys.stderr)
        return 2
    try:
        print(
            profile_experiment(
                args.target,
                seed=args.seed,
                duration_s=args.duration,
                probes=args.probes,
                sort=args.sort,
                output=args.output,
            )
        )
    except BrokenPipeError:  # pragma: no cover - output piped to head
        pass
    except Exception as error:  # noqa: BLE001 - one-line CLI surface
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "lint":
        # The linter owns its whole argument surface (paths, --format,
        # --show-waivers), so dispatch before the experiment parser sees it.
        from repro.simlint.cli import run as lint_run

        return lint_run(arguments[1:])
    args = _build_parser().parse_args(arguments)
    cache = None
    if not args.no_cache:
        cache = SweepCache(root=args.cache_dir)
    if args.clear_cache:
        target_cache = cache if cache is not None else SweepCache(root=args.cache_dir)
        removed = target_cache.clear()
        print(f"cleared {removed} cached sweep points from {target_cache.root}")
    if args.experiment == "list":
        try:
            print(_list_experiments())
        except BrokenPipeError:  # pragma: no cover - `repro list | head`
            pass
        return 0
    if args.experiment == "profile":
        return _profile(args)
    if args.experiment == "audit":
        return _audit(args)
    config = RunnerConfig(
        timeout_s=args.timeout,
        max_retries=args.retries,
        on_error=args.on_error,
    )
    if args.experiment == "spec":
        return _run_spec(args, cache, config)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    try:
        overrides = _parse_overrides(args.overrides)
        report = run_suite(
            names,
            seed=args.seed,
            duration_s=args.duration,
            probes=args.probes,
            config=config,
            on_result=_print_result,
            jobs=args.jobs,
            cache=cache,
            overrides=overrides,
        )
        if len(names) > 1:
            print(report.format_summary())
        if args.report is not None:
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(report.to_json() + "\n")
    except BrokenPipeError:  # pragma: no cover - output piped to head
        return 0
    except SweepInterrupted as error:
        # Graceful Ctrl-C/SIGTERM: the message says whether the cache
        # kept the finished points and how to finish the rest.
        print(f"interrupted: {error}", file=sys.stderr)
        return 130
    except Exception as error:  # pragma: no cover - last-resort CLI surface
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0 if report.all_ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
