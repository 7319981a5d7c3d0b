"""The ``repro lint`` command.

Kept separate from :mod:`repro.cli` so the experiment front-end stays a
thin dispatcher; this module owns argument parsing and rendering for
the linter.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence

from repro.simlint.checker import CHECKER_RULES, Checker, iter_python_files
from repro.simlint.report import (
    EXIT_CLEAN,
    EXIT_ERROR,
    exit_code,
    render_json,
    render_text,
)
from repro.simlint.rules import all_rules


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Static determinism, ordering, sim-time and unit checks for "
            "the simulator sources."
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
        choices=("text", "json"),
        default="text",
        help="report format (default text)",
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


def _print(text: str) -> None:
    """Print ``text``; a reader that has gone away (``| head``) is no error."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # Point stdout at /dev/null so the flush at interpreter exit does
        # not raise the same error again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def run(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``repro lint``; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        _print(_list_rules())
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

    files_checked = sum(1 for _ in iter_python_files(paths))
    findings = Checker().check_paths(paths, root=root)
    waived = [finding for finding in findings if finding.waived]
    active = [finding for finding in findings if not finding.waived]
    if args.format == "json":
        rendered = render_json(active, waived, files_checked)
    else:
        rendered = render_text(
            active, waived, files_checked, verbose_waivers=args.show_waivers
        )
    _print(rendered)
    return exit_code(active)
