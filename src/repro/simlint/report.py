"""Rendering and exit codes for ``repro lint``.

Text output is one ``path:line:col: SLnnn message`` line per finding —
the grep/editor-jump format — followed by a one-line summary.  JSON
output is a stable machine-readable document (schema version 2) that CI
uploads as an artifact.

Exit codes: 0 — clean (every finding waived); 1 — at least one active
finding; 2 — usage or internal error (the CLI's job to raise).
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Sequence

from repro.simlint.checker import Finding

#: Exit codes of the ``lint`` command.
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def exit_code(active_findings: Sequence[Finding]) -> int:
    """0 when nothing actionable remains, 1 otherwise."""
    return EXIT_FINDINGS if active_findings else EXIT_CLEAN


def summarise(
    active: Sequence[Finding],
    waived: Sequence[Finding],
    files_checked: int,
) -> str:
    """The one-line human summary closing the text report."""
    by_rule = Counter(finding.rule_id for finding in active)
    parts = [f"{len(active)} finding{'s' if len(active) != 1 else ''}"]
    if by_rule:
        details = ", ".join(
            f"{rule} ×{count}" for rule, count in sorted(by_rule.items())
        )
        parts[0] += f" ({details})"
    if waived:
        parts.append(f"{len(waived)} waived")
    parts.append(f"{files_checked} files checked")
    return "simlint: " + ", ".join(parts)


def render_text(
    active: Sequence[Finding],
    waived: Sequence[Finding],
    files_checked: int,
    verbose_waivers: bool = False,
) -> str:
    """The full text report."""
    lines = [
        f"{finding.location()}: {finding.rule_id} {finding.message}"
        for finding in active
    ]
    if verbose_waivers:
        for finding in waived:
            lines.append(
                f"{finding.location()}: {finding.rule_id} waived "
                f"-- {finding.waiver_reason}"
            )
    lines.append(summarise(active, waived, files_checked))
    return "\n".join(lines)


def _finding_payload(finding: Finding) -> dict[str, object]:
    payload: dict[str, object] = {
        "rule": finding.rule_id,
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "message": finding.message,
    }
    if finding.waived:
        payload["waived"] = True
        payload["waiver_reason"] = finding.waiver_reason
    return payload


def render_json(
    active: Sequence[Finding],
    waived: Sequence[Finding],
    files_checked: int,
) -> str:
    """The machine-readable report CI archives."""
    document = {
        "version": 2,
        "summary": {
            "active": len(active),
            "waived": len(waived),
            "files_checked": files_checked,
            "by_rule": dict(
                sorted(Counter(f.rule_id for f in active).items())
            ),
        },
        "findings": [_finding_payload(finding) for finding in active],
        "waivers": [_finding_payload(finding) for finding in waived],
    }
    return json.dumps(document, indent=2)
