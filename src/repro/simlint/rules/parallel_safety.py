"""SL4xx — parallel safety: no shared mutable class state.

The sweep engine runs many simulations in one process (serial path) and
one after another in each pool worker.  Both break on the same shape:

* **SL401** — a mutable object (list/dict/set, ``itertools.count``,
  ``deque``...) assigned at class level is shared by every instance *in
  the process*, so two live simulations contaminate each other.  This
  is exactly PR 2's ``Signal._ids`` bug: a class-level id counter made
  signal ids depend on how many mediums had ever lived in the worker.

Sweep work needs no rule of its own: ``run_sweep`` takes a point
function by dotted path, so no callable crosses a process boundary.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.simlint.checker import Finding, ParsedModule

#: Constructors whose result is mutable shared state at class level.
_MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter", "count"}
)

#: Call names exempt from SL401: these produce per-instance descriptors
#: or immutable values even though they are calls.
_CLASS_LEVEL_SAFE_CALLS = frozenset(
    {"field", "property", "staticmethod", "classmethod", "frozenset", "tuple"}
)


def _is_enum_class(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
        if "Enum" in name or "Flag" in name:
            return True
    return False


def _call_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _mutable_description(value: ast.expr) -> str | None:
    """Why ``value`` is mutable shared state, or None when it is safe."""
    if isinstance(value, (ast.List, ast.ListComp)):
        return "a list"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "a dict"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "a set"
    if isinstance(value, ast.Call):
        name = _call_name(value)
        if name in _CLASS_LEVEL_SAFE_CALLS:
            return None
        if name in _MUTABLE_CONSTRUCTORS:
            return f"a {name}() object"
    return None


class MutableClassAttributeRule:
    """SL401: mutable object assigned at class level."""

    rule_id = "SL401"
    summary = (
        "mutable class attribute is shared by every instance in the "
        "process (the Signal._ids bug shape); initialise in __init__"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for class_node in ast.walk(module.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            if _is_enum_class(class_node):
                continue
            for statement in class_node.body:
                target_name, value = self._class_assignment(statement)
                if value is None or target_name is None:
                    continue
                if target_name.startswith("__") and target_name.endswith("__"):
                    continue
                description = _mutable_description(value)
                if description is None:
                    continue
                yield Finding(
                    rule_id=self.rule_id,
                    path=module.relpath,
                    line=statement.lineno,
                    col=statement.col_offset,
                    message=(
                        f"class attribute {target_name!r} holds {description}"
                        f" shared by every {class_node.name} in the process; "
                        "move it to __init__ (or waive with the isolation "
                        "argument spelled out)"
                    ),
                )

    @staticmethod
    def _class_assignment(
        statement: ast.stmt,
    ) -> tuple[str | None, ast.expr | None]:
        if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
            target = statement.targets[0]
            if isinstance(target, ast.Name):
                return target.id, statement.value
        if isinstance(statement, ast.AnnAssign) and statement.value is not None:
            if isinstance(statement.target, ast.Name):
                return statement.target.id, statement.value
        return None, None


RULES = [MutableClassAttributeRule]
