"""Persistent perf trajectory for the headline benches.

``pytest-benchmark`` times a bench once and forgets; this harness gives
the repo a *memory*.  Each tracked figure gets a committed
``benchmarks/BENCH_<figure>.json`` holding labelled entries — at least
``baseline`` (the measurement that predates the engine overhaul) and
``current`` (the latest accepted measurement) — so every future PR can
ask "did I make figure 7 slower?" with one command:

    python benchmarks/trajectory.py check            # all figures
    python benchmarks/trajectory.py check figure7 --tolerance 0.10

``check`` re-measures each figure (median of ``--runs`` fresh
subprocesses) and fails when the median wall-clock regresses more than
``--tolerance`` (default 10%) against the file's ``current`` entry.
CI runs exactly this in the ``perf-gate`` job.

Measurements are honest by construction:

* every run is a **fresh subprocess** (no warm caches, no shared
  interpreter state), timed around the experiment call only — import
  cost is excluded;
* ``events/sec`` comes from the simulator's own fired-event counter
  (:func:`repro.sim.engine.events_fired_total`), so it tracks scheduler
  throughput independent of how much work each event does;
* peak RSS is ``getrusage`` of the workload process itself.

To refresh an entry after an accepted perf change:

    python benchmarks/trajectory.py record --label current

The ``REPRO_PERF_HANDICAP`` environment variable (a float multiplier)
stretches every workload's wall-clock by sleeping the excess — it
exists solely to prove the gate trips: set it to 2.0 and ``check``
must fail.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).parent
REPO_ROOT = BENCH_DIR.parent

#: Synthetic-slowdown knob (float multiplier >= 1) for gate testing.
HANDICAP_ENV = "REPRO_PERF_HANDICAP"

#: Tracked figures: name -> (import path, callable, kwargs).  Parameters
#: mirror the pytest benches of the same name so the trajectory numbers
#: describe the workload CI actually runs.
WORKLOADS: dict[str, tuple[str, str, dict]] = {
    "figure3": ("repro.experiments.ranges", "run_figure3", {"probes": 120}),
    "figure7": ("repro.experiments.four_nodes", "run_figure7", {"duration_s": 8.0}),
    "table3": ("repro.experiments.ranges", "run_table3", {"probes": 120}),
    # 250 mobile stations on a wide random field, one CBR per station:
    # the medium's grid pass at scale.
    "multihop": (
        "repro.experiments.multihop",
        "scale_point",
        {
            "n": 250,
            "duration_s": 3.0,
            "seed": 1,
            "spacing_m": 300.0,
            "mobile_speed_m_s": 1.5,
        },
    ),
}


def bench_path(figure: str) -> Path:
    return BENCH_DIR / f"BENCH_{figure}.json"


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        sha = out.stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        if dirty.stdout.strip():
            sha += "-dirty"
        return sha
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


# ---------------------------------------------------------------------------
# Workload subprocess


def _run_workload(figure: str) -> None:
    """Entry point of one measurement subprocess: run, print one JSON line."""
    import importlib
    import resource

    module_name, function_name, kwargs = WORKLOADS[figure]
    function = getattr(importlib.import_module(module_name), function_name)
    from repro.sim import engine

    start = time.perf_counter()
    function(**kwargs)
    wall_s = time.perf_counter() - start

    handicap = float(os.environ.get(HANDICAP_ENV, "1.0"))
    if handicap > 1.0:
        time.sleep(wall_s * (handicap - 1.0))
        wall_s *= handicap

    usage = resource.getrusage(resource.RUSAGE_SELF)
    # getattr: lets the harness measure trees that predate the fired-event
    # counter (how the committed `baseline` entries were taken).
    fired = getattr(engine, "events_fired_total", lambda: 0)()
    print(
        json.dumps(
            {
                "wall_s": wall_s,
                "events": fired,
                "peak_rss_kb": usage.ru_maxrss,
            }
        )
    )


def measure(figure: str, runs: int) -> dict:
    """Median-of-``runs`` measurement of one figure, fresh process each."""
    samples = []
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", str(REPO_ROOT / "src"))
    for _ in range(runs):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "trajectory.py"), "_workload", figure],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        if out.returncode != 0:
            raise RuntimeError(
                f"workload {figure} failed (exit {out.returncode}):\n{out.stderr}"
            )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    walls = [sample["wall_s"] for sample in samples]
    median_wall = statistics.median(walls)
    events = samples[0]["events"]
    return {
        "figure": figure,
        "git_sha": git_sha(),
        "runs": runs,
        "median_wall_s": round(median_wall, 4),
        "stddev_wall_s": round(statistics.stdev(walls), 4) if runs > 1 else 0.0,
        "wall_s_samples": [round(w, 4) for w in walls],
        "events": events,
        "events_per_s": round(events / median_wall) if median_wall > 0 else 0,
        "peak_rss_kb": max(sample["peak_rss_kb"] for sample in samples),
    }


# ---------------------------------------------------------------------------
# Trajectory files


def load_entries(figure: str) -> dict[str, dict]:
    path = bench_path(figure)
    if not path.exists():
        return {}
    return json.loads(path.read_text())["entries"]


def save_entry(figure: str, label: str, entry: dict) -> Path:
    entries = load_entries(figure)
    entries[label] = entry
    path = bench_path(figure)
    path.write_text(
        json.dumps({"figure": figure, "entries": entries}, indent=2, sort_keys=True)
        + "\n"
    )
    return path


# ---------------------------------------------------------------------------
# Commands


def cmd_record(figures: list[str], label: str, runs: int) -> int:
    for figure in figures:
        entry = measure(figure, runs)
        path = save_entry(figure, label, entry)
        print(
            f"{figure}: {label} <- median {entry['median_wall_s']}s "
            f"(stddev {entry['stddev_wall_s']}s, {entry['events_per_s']} ev/s, "
            f"rss {entry['peak_rss_kb']} kB) -> {path.name}"
        )
    return 0


def cmd_check(
    figures: list[str], runs: int, tolerance: float, reference: str
) -> int:
    failures = []
    for figure in figures:
        entries = load_entries(figure)
        if reference not in entries:
            print(f"{figure}: no {reference!r} entry in {bench_path(figure).name}; "
                  f"run `trajectory.py record --label {reference}` first")
            failures.append(figure)
            continue
        ref = entries[reference]
        now = measure(figure, runs)
        ratio = now["median_wall_s"] / ref["median_wall_s"]
        verdict = "ok" if ratio <= 1.0 + tolerance else "REGRESSION"
        print(
            f"{figure}: {now['median_wall_s']}s vs {reference} "
            f"{ref['median_wall_s']}s -> x{ratio:.3f} [{verdict}] "
            f"(tolerance x{1.0 + tolerance:.2f}, {now['events_per_s']} ev/s)"
        )
        if verdict != "ok":
            failures.append(figure)
    if failures:
        print(f"perf gate FAILED: {', '.join(failures)}")
        return 1
    print("perf gate passed")
    return 0


def cmd_show(figures: list[str]) -> int:
    for figure in figures:
        entries = load_entries(figure)
        if not entries:
            print(f"{figure}: no trajectory yet")
            continue
        print(f"{figure}:")
        for label, entry in entries.items():
            print(
                f"  {label:>10}: {entry['median_wall_s']}s "
                f"+/- {entry['stddev_wall_s']}s, {entry['events_per_s']} ev/s, "
                f"rss {entry['peak_rss_kb']} kB, sha {entry['git_sha'][:12]}"
            )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "figures",
            nargs="*",
            default=list(WORKLOADS),
            help="figures to process (default: all tracked)",
        )
        p.add_argument("--runs", type=int, default=3, help="samples per figure")

    p_record = sub.add_parser("record", help="measure and store a labelled entry")
    add_common(p_record)
    p_record.add_argument("--label", default="current", help="entry label")

    p_check = sub.add_parser("check", help="fail on wall-clock regression")
    add_common(p_check)
    p_check.add_argument("--tolerance", type=float, default=0.10,
                         help="allowed fractional slowdown (default 0.10)")
    p_check.add_argument("--reference", default="current",
                         help="entry label to compare against")

    p_show = sub.add_parser("show", help="print the stored trajectory")
    p_show.add_argument("figures", nargs="*", default=list(WORKLOADS))

    p_work = sub.add_parser("_workload")  # internal: one measurement run
    p_work.add_argument("figure", choices=list(WORKLOADS))

    args = parser.parse_args(argv)
    figures = args.figures if getattr(args, "figures", None) else list(WORKLOADS)
    for figure in figures if args.command != "_workload" else []:
        if figure not in WORKLOADS:
            parser.error(f"unknown figure {figure!r}; tracked: {list(WORKLOADS)}")

    if args.command == "_workload":
        _run_workload(args.figure)
        return 0
    if args.command == "record":
        return cmd_record(figures, args.label, args.runs)
    if args.command == "check":
        return cmd_check(figures, args.runs, args.tolerance, args.reference)
    return cmd_show(figures)


if __name__ == "__main__":
    # Append, don't prepend: a PYTHONPATH pointing at another checkout
    # (how `baseline` entries are measured) must keep winning the import.
    sys.path.append(str(REPO_ROOT / "src"))
    raise SystemExit(main())
