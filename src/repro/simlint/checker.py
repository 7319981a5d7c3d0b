"""The AST walker behind ``repro lint``.

A :class:`ParsedModule` bundles one source file with everything a rule
needs to reason about it: the parse tree, a child-to-parent map (the
:mod:`ast` module only links downwards), the raw source lines and the
inline waivers.  The :class:`Checker` parses each file once, hands the
module to every registered rule, and attaches waivers to the findings
they return.

Waivers are inline comments of the form::

    x = risky()  # simlint: waive[SL401] -- shared fallback, see docstring

A waiver covers the line it sits on and, when written on a line of its
own, the first following line that produces a finding.  The
justification after ``--`` is mandatory: a waiver without a reason does
not suppress anything (and is itself reported as ``SL001``).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

#: Findings the checker emits itself, outside the rule registry;
#: ``repro lint --list-rules`` prints them after the registry's.
CHECKER_RULES: Mapping[str, str] = {
    "SL001": "waiver comment without a '-- justification' suffix",
    "SL002": "file cannot be parsed",
    "SL003": "stale waiver: suppresses no finding in the current run",
}

#: Matches waiver comments: ``simlint: waive[SL101, SL202] -- reason``.
_WAIVER_RE = re.compile(
    r"#\s*simlint:\s*waive\[(?P<rules>[A-Z0-9*,\s]+)\]"
    r"(?:\s*--\s*(?P<reason>.*\S))?"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    waived: bool = False
    waiver_reason: str | None = None

    def location(self) -> str:
        """``path:line:col`` — the clickable prefix of the text report."""
        return f"{self.path}:{self.line}:{self.col}"


@dataclass(frozen=True)
class Waiver:
    """An inline suppression comment."""

    line: int
    rule_ids: tuple[str, ...]
    reason: str | None
    #: True when the comment is alone on its line and therefore covers
    #: the next finding-producing line below it.
    standalone: bool

    def covers(self, rule_id: str) -> bool:
        """Whether this waiver names ``rule_id`` (or ``*``)."""
        return "*" in self.rule_ids or rule_id in self.rule_ids


@dataclass
class ParsedModule:
    """One source file, parsed and indexed for the rules."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    lines: Sequence[str]
    waivers: tuple[Waiver, ...]
    _parents: dict[int, ast.AST] = field(default_factory=dict, repr=False)

    @classmethod
    def parse(cls, path: Path, root: Path | None = None) -> "ParsedModule":
        """Read and parse ``path``; ``root`` anchors the reported relpath."""
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        module = cls(
            path=path,
            relpath=_relpath_for(path, root),
            source=source,
            tree=tree,
            lines=source.splitlines(),
            waivers=tuple(_extract_waivers(source)),
        )
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                # simlint: waive[SL201] -- keys index live AST nodes the
                # module itself keeps referenced, so ids cannot be reused.
                module._parents[id(child)] = parent
        return module

    def parent(self, node: ast.AST) -> ast.AST | None:
        """The syntactic parent of ``node`` (None for the module)."""
        # simlint: waive[SL201] -- lookup key for live AST nodes held by
        # this module; ids are stable while the tree is referenced.
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module root."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        """The innermost function containing ``node``, if any."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def enclosing_class(self, node: ast.AST) -> ast.ClassDef | None:
        """The innermost class containing ``node``, if any."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor
        return None

    def line_text(self, line: int) -> str:
        """Source text of a 1-based line (empty when out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def waiver_for(self, finding: Finding) -> Waiver | None:
        """The waiver covering ``finding``, if one exists.

        Same-line waivers win; otherwise a standalone waiver comment on
        the closest preceding line applies as long as only blank or
        comment lines separate the two.
        """
        for waiver in self.waivers:
            if waiver.line == finding.line and waiver.covers(finding.rule_id):
                return waiver
        best: Waiver | None = None
        for waiver in self.waivers:
            if not waiver.standalone or not waiver.covers(finding.rule_id):
                continue
            if waiver.line >= finding.line:
                continue
            between = range(waiver.line + 1, finding.line)
            if all(_is_blank_or_comment(self.line_text(n)) for n in between):
                if best is None or waiver.line > best.line:
                    best = waiver
        return best


def _is_blank_or_comment(text: str) -> bool:
    stripped = text.strip()
    return not stripped or stripped.startswith("#")


def _comment_lines(source: str) -> dict[int, str]:
    """1-based line number of every *real* comment token in ``source``.

    Tokenizing (rather than regexing raw lines) keeps waiver examples in
    docstrings — this module's own docstring included — from being
    mistaken for live suppressions; that matters now that SL003 reports
    waivers that suppress nothing.
    """
    comments: dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        pass
    return comments


def _extract_waivers(source: str) -> Iterator[Waiver]:
    lines = source.splitlines()
    comments = _comment_lines(source)
    for line_number, comment in sorted(comments.items()):
        match = _WAIVER_RE.search(comment)
        if match is None:
            continue
        text = lines[line_number - 1] if line_number <= len(lines) else comment
        rule_ids = tuple(
            token.strip() for token in match.group("rules").split(",") if token.strip()
        )
        reason = match.group("reason")
        standalone = text.strip().startswith("#")
        if reason is not None and standalone:
            # A standalone waiver's justification may wrap onto following
            # comment lines; fold them into the reason.
            for follower in lines[line_number:]:
                stripped = follower.strip()
                if not stripped.startswith("#") or "simlint:" in stripped:
                    break
                reason = f"{reason} {stripped.lstrip('#').strip()}"
        yield Waiver(
            line=line_number,
            rule_ids=rule_ids,
            reason=reason,
            standalone=standalone,
        )


def _relpath_for(path: Path, root: Path | None) -> str:
    try:
        relpath = str(path.relative_to(root)) if root is not None else str(path)
    except ValueError:
        relpath = str(path)
    return relpath.replace("\\", "/")


def _waive(module: ParsedModule, finding: Finding, used_lines: set[int]) -> Finding:
    """``finding``, marked waived when a justified waiver in ``module``
    covers it; the waiver's line is then recorded in ``used_lines``."""
    waiver = module.waiver_for(finding)
    if waiver is None or waiver.reason is None:
        return finding
    used_lines.add(waiver.line)
    return replace(finding, waived=True, waiver_reason=waiver.reason)


class Checker:
    """Parses files and runs every registered rule over them.

    Module rules run per file; project rules run once afterwards over
    the :class:`~repro.simlint.project.ProjectGraph` built from the same
    parsed modules.
    """

    def __init__(self) -> None:
        from repro.simlint.rules import all_rules

        rules = all_rules()
        self._module_rules = [rule for rule in rules if hasattr(rule, "check")]
        self._project_rules = [
            rule for rule in rules if hasattr(rule, "check_project")
        ]

    def _check_module(
        self, module: ParsedModule, used_lines: set[int]
    ) -> Iterator[Finding]:
        """SL001 and module-rule findings for one module, waivers applied."""
        for waiver in module.waivers:
            if waiver.reason is None:
                yield Finding(
                    rule_id="SL001",
                    path=module.relpath,
                    line=waiver.line,
                    col=0,
                    message=(
                        "waiver without a justification: write "
                        "'# simlint: waive[SLnnn] -- reason'"
                    ),
                )
        for rule in self._module_rules:
            for finding in rule.check(module):  # type: ignore[attr-defined]
                yield _waive(module, finding, used_lines)

    def check_paths(
        self, paths: Iterable[Path], root: Path | None = None
    ) -> list[Finding]:
        """Findings for every ``*.py`` file under ``paths``.

        Each file is parsed once and kept in memory: the module rules
        run on it, then the same modules build the project graph the
        project rules query.  A file that does not parse yields one
        SL002 and takes no part in the project pass.  SL003 finally
        reports the justified waivers that suppressed nothing anywhere.
        """
        from repro.simlint.project import ProjectGraph

        findings: list[Finding] = []
        modules: list[ParsedModule] = []
        used: dict[str, set[int]] = {}
        for path in iter_python_files(paths):
            try:
                module = ParsedModule.parse(path, root=root)
            except (SyntaxError, UnicodeDecodeError) as error:
                findings.append(
                    Finding(
                        rule_id="SL002",
                        path=_relpath_for(path, root),
                        line=getattr(error, "lineno", 1) or 1,
                        col=0,
                        message=f"cannot parse file: {error}",
                    )
                )
                continue
            used[module.relpath] = set()
            findings.extend(self._check_module(module, used[module.relpath]))
            modules.append(module)

        by_relpath = {module.relpath: module for module in modules}
        graph = ProjectGraph.from_modules(modules)
        for rule in self._project_rules:
            for finding in rule.check_project(graph):  # type: ignore[attr-defined]
                findings.append(
                    _waive(by_relpath[finding.path], finding, used[finding.path])
                )
        findings.extend(self._stale_waivers(modules, used))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
        return findings

    @staticmethod
    def _stale_waivers(
        modules: Sequence[ParsedModule],
        used: dict[str, set[int]],
    ) -> Iterator[Finding]:
        """SL003: justified waivers that suppressed nothing this run."""
        for module in modules:
            for waiver in module.waivers:
                if waiver.reason is None or waiver.line in used[module.relpath]:
                    continue
                rules_text = ", ".join(waiver.rule_ids)
                yield Finding(
                    rule_id="SL003",
                    path=module.relpath,
                    line=waiver.line,
                    col=0,
                    message=(
                        f"stale waiver [{rules_text}]: it suppresses no "
                        "finding in this run; delete it (rules evolve — "
                        "dead waivers hide real regressions)"
                    ),
                )


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Every ``*.py`` file under the given files/directories, sorted.

    Sorted traversal keeps reports stable across filesystems
    (``iterdir`` order is platform-dependent).
    """
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path
