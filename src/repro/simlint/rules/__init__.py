"""Rule registry: one module per rule family.

* ``SL1xx`` :mod:`repro.simlint.rules.determinism`
* ``SL2xx`` :mod:`repro.simlint.rules.ordering`
* ``SL3xx`` :mod:`repro.simlint.rules.simtime`
* ``SL4xx`` :mod:`repro.simlint.rules.parallel_safety`
* ``SL6xx`` :mod:`repro.simlint.rules.scenario_layer`
* ``SL7xx`` :mod:`repro.simlint.rules.units_flow`
* ``SL8xx`` :mod:`repro.simlint.rules.kernel_parity`

Two rule shapes exist since the whole-program layer landed:

* a **module rule** has a ``rule_id``, a one-line ``summary`` and a
  ``check(module) -> Iterator[Finding]`` method, and sees one file;
* a **project rule** has the same identity fields but a
  ``check_project(graph) -> Iterator[Finding]`` method and sees the
  :class:`~repro.simlint.project.ProjectGraph` joining every linted
  file (it only runs from ``Checker.check_paths``).

New rules register by appending their class to their family module's
``RULES`` list; the registry here just concatenates the families.
"""

from __future__ import annotations

from typing import Iterator, Protocol, Union, runtime_checkable

from repro.simlint.checker import Finding, ParsedModule
from repro.simlint.project import ProjectGraph


@runtime_checkable
class Rule(Protocol):
    """A per-file rule."""

    rule_id: str
    summary: str

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        """Yield every violation of this rule in ``module``."""
        ...


@runtime_checkable
class ProjectRule(Protocol):
    """A whole-program rule run once over the project graph."""

    rule_id: str
    summary: str

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        """Yield every violation visible from the project graph."""
        ...


AnyRule = Union[Rule, ProjectRule]


def all_rules() -> list[AnyRule]:
    """Fresh instances of every registered rule, id order."""
    from repro.simlint.rules import (
        determinism,
        kernel_parity,
        ordering,
        parallel_safety,
        scenario_layer,
        simtime,
        units_flow,
    )

    rules: list[AnyRule] = []
    for family in (
        determinism,
        ordering,
        simtime,
        parallel_safety,
        scenario_layer,
        units_flow,
        kernel_parity,
    ):
        rules.extend(rule_class() for rule_class in family.RULES)
    rules.sort(key=lambda rule: rule.rule_id)
    return rules


def rules_by_id() -> dict[str, AnyRule]:
    """Mapping of rule id to a fresh rule instance."""
    return {rule.rule_id: rule for rule in all_rules()}


__all__ = ["AnyRule", "ProjectRule", "Rule", "all_rules", "rules_by_id"]
