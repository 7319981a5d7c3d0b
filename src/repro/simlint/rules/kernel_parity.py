"""SL8xx — float summation order and slot-scheduler tokens.

Two bug classes a per-file style check cannot name:

* **SL801** — order-dependent float accumulation over an unordered
  container.  ``sum()`` over a set (or a generator drawn from one)
  rounds differently per iteration order, so two runs can disagree in
  the last bit.  ``math.fsum`` is exact and therefore
  order-independent; ``sorted()`` pins the order.  (SL202 deliberately
  exempts ``sum(...)`` as "order-insensitive"; that is true for ints
  and exactly wrong for floats, which is this rule.)
* **SL804** — slot-API misuse: passing a literal integer where a
  scheduler token (the ``seq`` returned by ``schedule_slot``) is
  expected, or reusing a ``(slot, seq)`` handle pair after it was
  cancelled in the same straight-line block (the token is dead the
  moment ``cancel_slot`` returns; a recycled slot can alias it).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.simlint.checker import Finding, ParsedModule

#: Call names that take/validate a ``(slot, seq)`` token pair.
_SLOT_CONSUMERS = frozenset({"cancel_slot", "slot_active"})


def _is_set_expr(node: ast.expr, local_sets: frozenset[str]) -> str | None:
    """A short description when ``node`` is provably unordered, else None."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in {"set", "frozenset"}:
            return f"a {node.func.id}() value"
    if isinstance(node, ast.Name) and node.id in local_sets:
        return f"the set variable {node.id!r}"
    if isinstance(node, (ast.GeneratorExp, ast.ListComp)):
        for generator in node.generators:
            inner = _is_set_expr(generator.iter, local_sets)
            if inner is not None:
                return f"a generator over {inner}"
    return None


def _local_set_names(scope: ast.AST) -> frozenset[str]:
    names: set[str] = set()
    for node in ast.walk(scope):
        value: ast.expr | None = None
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value, targets = node.value, [node.target]
        if value is None:
            continue
        if _is_set_expr(value, frozenset()) is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return frozenset(names)


def _names_int_ns(node: ast.expr) -> bool:
    """Whether the reduced expression's spine names an integer-ns value."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id.endswith("_ns"):
            return True
        if isinstance(sub, ast.Attribute) and sub.attr.endswith("_ns"):
            return True
    return False


class UnorderedFloatSumRule:
    """SL801: ``sum()`` over a provably unordered container."""

    rule_id = "SL801"
    summary = (
        "sum() over a set: float accumulation order follows hash "
        "seeding; use math.fsum (exact) or sorted() to pin the order"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        local_sets = _local_set_names(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not (isinstance(node.func, ast.Name) and node.func.id == "sum"):
                continue
            if not node.args:
                continue
            description = _is_set_expr(node.args[0], local_sets)
            if description is None:
                continue
            if _names_int_ns(node.args[0]):
                continue  # integer ns sums are exact in any order
            yield Finding(
                rule_id=self.rule_id,
                path=module.relpath,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"sum() over {description}: float accumulation order "
                    "follows hash seeding; use math.fsum or sorted()"
                ),
            )


def _call_attr_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _handle_pair(node: ast.Call) -> tuple[str, str] | None:
    """The ``(slot_name, seq_name)`` a slot-consumer call passes, if plain."""
    if len(node.args) != 2:
        return None
    slot_arg, seq_arg = node.args
    slot = _plain_name(slot_arg)
    seq = _plain_name(seq_arg)
    if slot is None or seq is None:
        return None
    return slot, seq


def _plain_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        # self._slot style handles: key on the attribute name.
        return node.attr
    return None


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _walk_straight_line(stmt: ast.stmt) -> Iterator[ast.AST]:
    """Walk a statement's subtree, pruning nested function/class bodies.

    A call inside a nested ``def`` does not execute where it is written,
    so it must not participate in the enclosing block's straight-line
    handle tracking (a class body is a sequence of definitions, not of
    executions).
    """
    stack: list[ast.AST] = [stmt]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, _SCOPE_NODES):
                stack.append(child)


def _assigned_names(stmt: ast.stmt) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(stmt):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            targets = [node.target]
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
    return names


class SlotTokenMisuseRule:
    """SL804: literal tokens or cancelled handles fed to the slot API."""

    rule_id = "SL804"
    summary = (
        "slot-API misuse: literal int where a schedule_slot token is "
        "expected, or a (slot, seq) handle reused after cancel_slot"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        yield from self._literal_tokens(module)
        yield from self._stale_handles(module)

    def _literal_tokens(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if _call_attr_name(node) not in _SLOT_CONSUMERS:
                continue
            if len(node.args) != 2:
                continue
            seq_arg = node.args[1]
            if isinstance(seq_arg, ast.Constant) and isinstance(
                seq_arg.value, int
            ) and not isinstance(seq_arg.value, bool):
                yield Finding(
                    rule_id=self.rule_id,
                    path=module.relpath,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"literal {seq_arg.value} passed as the seq token of "
                        f"{_call_attr_name(node)}(); only the pair returned "
                        "by schedule_slot identifies an event"
                    ),
                )

    def _stale_handles(self, module: ParsedModule) -> Iterator[Finding]:
        """Reuse of a cancelled ``(slot, seq)`` pair in the same block.

        Straight-line only: the scan walks each statement list in order,
        so handles cancelled and reused on different branches of an
        ``if`` never trip it.
        """
        for node in ast.walk(module.tree):
            body_lists: list[list[ast.stmt]] = []
            for field_value in ast.iter_fields(node):
                _, value = field_value
                if isinstance(value, list) and value and all(
                    isinstance(item, ast.stmt) for item in value
                ):
                    body_lists.append(value)
            for body in body_lists:
                yield from self._scan_block(module, body)

    def _scan_block(
        self, module: ParsedModule, body: list[ast.stmt]
    ) -> Iterator[Finding]:
        cancelled: dict[tuple[str, str], int] = {}
        for stmt in body:
            if isinstance(stmt, _SCOPE_NODES):
                continue  # definitions are not executions of this block
            rebound = _assigned_names(stmt)
            for pair in list(cancelled):
                if pair[0] in rebound or pair[1] in rebound:
                    del cancelled[pair]
            calls = [
                sub
                for sub in _walk_straight_line(stmt)
                if isinstance(sub, ast.Call)
                and _call_attr_name(sub) in _SLOT_CONSUMERS
            ]
            for call in calls:
                pair = _handle_pair(call)
                if pair is None:
                    continue
                if pair in cancelled:
                    yield Finding(
                        rule_id=self.rule_id,
                        path=module.relpath,
                        line=call.lineno,
                        col=call.col_offset,
                        message=(
                            f"handle ({pair[0]}, {pair[1]}) used after "
                            f"cancel_slot on line {cancelled[pair]}: the "
                            "token died with the cancel and a recycled slot "
                            "can alias it"
                        ),
                    )
                elif _call_attr_name(call) == "cancel_slot":
                    cancelled[pair] = call.lineno


RULES = [
    UnorderedFloatSumRule,
    SlotTokenMisuseRule,
]
