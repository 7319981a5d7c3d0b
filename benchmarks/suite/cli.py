"""Command line of the benchmark suite (the harness parent).

    PYTHONPATH=src python -m benchmarks.suite run   [--workload W] [--seed S] [--runs N]
                                                    [--json FILE]
    PYTHONPATH=src python -m benchmarks.suite trace [--workload W] [--seed S] [--out FILE]
                                                    [--json FILE]
    PYTHONPATH=src python -m benchmarks.suite pin   [--workload W]
    python3 -m benchmarks.suite bench --workload W --seed S --seconds T --trace 0|1

The parent never imports ``repro``: every measurement runs in a fresh
interpreter (:mod:`benchmarks.suite.child`) started with this
checkout's ``src`` on its path.  ``bench`` is the one-workload form
``BENCHMARK.json`` names; its last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from .metrics import (
    END_TO_END, FAIL_RATIO, P90_MIN_POINTS, PER_LAYER, PINNED_SEEDS, REFERENCE, RUN_SECONDS,
    SETUP_SAMPLES, UNITS, count_failures, load_reference, pinned_digest, summary,
)
from .workloads import WORKLOADS, result_digest

ROOT = Path(__file__).resolve().parents[2]

#: A child that runs longer than this is killed with its process group.
CHILD_TIMEOUT_S = 170.0


class SuiteError(Exception):
    """A measurement could not be taken (no result is printed)."""


def child(args: list[str]) -> tuple[dict[str, Any], float]:
    """Run one child protocol in a fresh interpreter.

    Returns its JSON result and the ``time.monotonic()`` instant just
    before the interpreter was started.  The child leads its own process
    group, so a timeout kills any pool workers with it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), *filter(None, [env.get("PYTHONPATH")])]
    )
    started = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.suite", "_child", *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise SuiteError(f"child {' '.join(args)} ran over {CHILD_TIMEOUT_S:g} s") from None
    if process.returncode != 0:
        raise SuiteError(f"child {' '.join(args)} exited with {process.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise SuiteError(f"child {' '.join(args)} printed no result")
    return json.loads(lines[-1]), started


def measure(workload: str, seed: int, seconds: float) -> dict[str, Any]:
    """End-to-end metrics of one workload at one seed."""
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        out, started = child(["setup", workload, str(seed)])
        setups.append(out["first_build_at"] - started)
    out, started = child(["measure", workload, str(seed), str(seconds)])
    setups.append(out["first_build_at"] - started)
    reps = out["reps"]
    done = [rep for rep in reps if rep["points"] is not None]
    if not done:
        raise SuiteError(f"{workload}: every repetition raised")
    best = min(done, key=lambda rep: rep["wall_s"])
    attempted, failed = count_failures(
        [rep["points"] for rep in reps], pinned_digest(workload, seed)
    )
    return {
        "metrics": {
            "wall_s": best["wall_s"],
            "cpu_s": best["cpu_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": out["peak_rss_kb"] / 1024,
            "pass_ratio": 1 - failed / attempted,
        },
        "attempted": attempted,
        "failed": failed,
        "reps": len(reps),
    }


def trace(workloads: list[str], seed: int, out: str | None) -> dict[str, Any]:
    """Per-layer metrics of every workload, from one traced child."""
    spans = str(Path(out).resolve()) if out else "-"
    result, _ = child(["trace", str(seed), spans, *workloads])
    return result


def _line(workload: str, name: str, value: float, note: str = "") -> None:
    print(f"{workload} {name} {value:.6g} {UNITS[name]}{note}")


def cmd_run(args: argparse.Namespace) -> int:
    report: dict[str, Any] = {}
    failed_any = False
    for workload in args.workload:
        runs = [measure(workload, args.seed + index, RUN_SECONDS) for index in range(args.runs)]
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        failed_any |= failed > 0
        entry: dict[str, Any] = {"seeds": [args.seed + i for i in range(args.runs)]}
        for metric in END_TO_END:
            values = [run["metrics"][metric.name] for run in runs]
            stats = summary(values)
            entry[metric.name] = {"unit": metric.unit, "values": values, **stats}
            note = "" if len(values) == 1 else (
                f"  (median of {len(values)}; q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g})")
            _line(workload, metric.name, stats["median"], note)
        entry["attempted"], entry["failed"] = attempted, failed
        _line(workload, FAIL_RATIO.name, failed / attempted, f"  ({failed}/{attempted} points)")
        report[workload] = entry
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    return 1 if failed_any else 0


def _print_trace(workload: str, result: dict[str, Any]) -> bool:
    metrics = result["metrics"]
    for metric in PER_LAYER:
        note = ""
        if metric.name == "scenario.point_p90_s" and result["points"] < P90_MIN_POINTS:
            note = f"  (max of {result['points']} points: p90 needs {P90_MIN_POINTS})"
        _line(workload, metric.name, metrics[metric.name], note)
    print(f"{workload} unattributed {result['unattributed_s']:.6g} s"
          f"  (root span {result['root_s']:.6g} s)")
    ok = all(result["checks"].values()) and result["failed"] == 0
    checks = ", ".join(f"{name} {'ok' if good else 'FAILED'}"
                       for name, good in result["checks"].items())
    print(f"{workload} checks: {checks}, {result['failed']}/{result['attempted']} points failed")
    return ok


def cmd_trace(args: argparse.Namespace) -> int:
    results = trace(args.workload, args.seed, args.out)
    ok = all([_print_trace(workload, results[workload]) for workload in args.workload])
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=2) + "\n")
    return 0 if ok else 1


def cmd_pin(args: argparse.Namespace) -> int:
    reference = load_reference()
    for workload in args.workload:
        pins = {}
        for seed in PINNED_SEEDS:
            out, _ = child(["measure", workload, str(seed), "0"])
            digests = {
                "raised" if rep["points"] is None else result_digest(rep["points"])
                for rep in out["reps"]
            }
            if len(digests) != 1 or "raised" in digests:
                print(f"{workload} seed {seed}: {len(out['reps'])} repetitions disagree or "
                      f"raised; reference.json left unchanged", file=sys.stderr)
                return 1
            pins[str(seed)] = digests.pop()
            print(f"{workload} seed {seed}: {pins[str(seed)]}")
        reference[workload] = pins
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    workload = args.workload[0]
    if args.trace:
        result = trace([workload], args.seed, None)[workload]
        correct = _print_trace(workload, result)
    else:
        result = measure(workload, args.seed, args.seconds)
        correct = result["failed"] == 0
        for metric in END_TO_END:
            _line(workload, metric.name, result["metrics"][metric.name])
    metrics = {m.name: {"value": result["metrics"][m.name], "unit": m.unit}
               for m in (PER_LAYER if args.trace else END_TO_END)}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def cmd_child(argv: list[str]) -> int:
    from . import child as protocols

    kind, rest = argv[0], argv[1:]
    if kind == "setup":
        out: Any = {"first_build_at": protocols.first_build_at(WORKLOADS[rest[0]], int(rest[1]))}
    elif kind == "measure":
        out = protocols.measure(WORKLOADS[rest[0]], int(rest[1]), float(rest[2]))
    else:  # trace SEED SPANS_FILE|- WORKLOAD...
        seed, spans_path, *names = int(rest[0]), *rest[1:]
        keep = spans_path != "-"
        out = {
            name: protocols.trace(WORKLOADS[name], seed, pinned_digest(name, seed), keep)
            for name in names
        }
        if keep:
            spans = {name: result.pop("spans") for name, result in out.items()}
            Path(spans_path).write_text(json.dumps(spans) + "\n")
    print(json.dumps(out))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["_child"]:
        return cmd_child(argv[1:])
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite",
                                     description="Benchmark suite of the 802.11 simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(name: str, help_: str, **workload_kw: Any) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--workload", action="append", choices=list(WORKLOADS), **workload_kw)
        return p

    p_run = common("run", "measure the end-to-end metrics")
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--runs", type=int, default=1, help="measurements, seeds S..S+N-1")
    p_run.add_argument("--json", help="write every value and its quartiles here")
    p_trace = common("trace", "measure the per-layer metrics in one traced process")
    p_trace.add_argument("--seed", type=int, default=1)
    p_trace.add_argument("--out", help="write the span columns here")
    p_trace.add_argument("--json", help="write the metrics and checks here")
    common("pin", f"re-pin the result digests of seeds {PINNED_SEEDS}")
    p_bench = common("bench", "one workload, one JSON result line", required=True)
    p_bench.add_argument("--seed", type=int, required=True)
    p_bench.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p_bench.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 1
    args.workload = args.workload or list(WORKLOADS)
    if getattr(args, "runs", 1) < 1:
        parser.error("--runs must be at least 1")
    if args.command == "bench" and len(args.workload) != 1:
        parser.error("bench takes exactly one --workload")
    try:
        return {"run": cmd_run, "trace": cmd_trace, "pin": cmd_pin,
                "bench": cmd_bench}[args.command](args)
    except SuiteError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

