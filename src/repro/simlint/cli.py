"""The ``repro lint`` command.

Kept separate from :mod:`repro.cli` so the experiment front-end stays a
thin dispatcher; this module owns argument parsing, baseline plumbing
and rendering for the linter.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.simlint.baseline import Baseline, LineTextLookup
from repro.simlint.cache import LintCache, default_cache_dir
from repro.simlint.checker import Checker, Finding, ParsedModule, iter_python_files
from repro.simlint.report import (
    EXIT_CLEAN,
    EXIT_ERROR,
    exit_code,
    render_json,
    render_text,
)
from repro.simlint.rules import all_rules
from repro.simlint.rules.spec import extract_spec_constants
from repro.simlint.sarif import CHECKER_RULES, render_sarif


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Static determinism / 802.11b-spec-conformance checks for the "
            "simulator sources."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default text; sarif is SARIF 2.1.0 for CI)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "cache per-file results keyed on content hash "
            "(default: $REPRO_SIMLINT_CACHE_DIR or ~/.cache/repro-simlint)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the per-file result cache",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="PATH",
        help="suppress findings recorded in this baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        type=Path,
        default=None,
        metavar="PATH",
        help="adopt all current findings into PATH and exit 0",
    )
    parser.add_argument(
        "--show-waivers",
        action="store_true",
        help="also list waived findings with their justifications",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule id and summary, then exit",
    )
    return parser


def _default_scope() -> tuple[list[Path], Path]:
    """Lint the installed ``repro`` package when no paths are given."""
    package_root = Path(__file__).resolve().parent.parent
    return [package_root], package_root.parent


def _list_rules() -> str:
    lines = ["simlint rules:"]
    for rule in all_rules():
        lines.append(f"  {rule.rule_id}  {rule.summary}")
    for rule_id, summary in sorted(CHECKER_RULES.items()):
        lines.append(f"  {rule_id}  {summary}")
    return "\n".join(lines)


def _spec_constants(paths: Sequence[Path], root: Path) -> dict[str, object]:
    """The extracted constant table, for the JSON report."""
    for file_path in iter_python_files(paths):
        if not str(file_path).endswith("params.py"):
            continue
        if "core" not in file_path.parts:
            continue
        try:
            module = ParsedModule.parse(file_path, root=root)
        except (SyntaxError, UnicodeDecodeError):
            return {}
        return dict(extract_spec_constants(module))
    return {}


def run(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``repro lint``; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return EXIT_CLEAN
    if args.paths:
        paths = [path.resolve() for path in args.paths]
        root = Path.cwd()
    else:
        paths, root = _default_scope()
    missing = [path for path in paths if not path.exists()]
    if missing:
        for path in missing:
            print(f"error: no such file or directory: {path}", file=sys.stderr)
        return EXIT_ERROR

    cache = None
    if not args.no_cache:
        cache_dir = (
            args.cache_dir if args.cache_dir is not None else default_cache_dir()
        )
        cache = LintCache(cache_dir)

    files_checked = sum(1 for _ in iter_python_files(paths))
    findings = Checker().check_paths(paths, root=root, cache=cache)
    waived = [finding for finding in findings if finding.waived]
    active = [finding for finding in findings if not finding.waived]
    lookup = LineTextLookup(root=root)

    if args.write_baseline is not None:
        baseline = Baseline.from_findings(findings, lookup)
        baseline.write(args.write_baseline)
        print(
            f"wrote {len(baseline)} fingerprint"
            f"{'s' if len(baseline) != 1 else ''} to {args.write_baseline}"
        )
        return EXIT_CLEAN

    baselined: list[Finding] = []
    if args.baseline is not None:
        try:
            baseline = Baseline.load(args.baseline)
        except (OSError, ValueError) as error:
            print(f"error: cannot read baseline: {error}", file=sys.stderr)
            return EXIT_ERROR
        active, baselined = baseline.split(findings, lookup)

    if args.format == "sarif":
        rendered = render_sarif(
            active,
            waived,
            baselined,
            {rule.rule_id: rule.summary for rule in all_rules()},
        )
    elif args.format == "json":
        rendered = render_json(
            active,
            waived,
            baselined,
            files_checked,
            spec_constants=_spec_constants(paths, root),
        )
    else:
        rendered = render_text(
            active,
            waived,
            baselined,
            files_checked,
            verbose_waivers=args.show_waivers,
        )
    try:
        print(rendered)
    except BrokenPipeError:  # pragma: no cover - `repro lint | head`
        pass
    return exit_code(active)
