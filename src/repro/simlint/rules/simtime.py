"""SL3xx — sim-time hygiene: constants live in one place, ns stay int.

The simulator keeps time as integer nanoseconds precisely so the event
heap never drifts; the 802.11b timing constants (SIFS, slot, DIFS, the
PLCP preamble) live in ``core/params.py`` so the analytic model, the
MAC and the PHY can never disagree.  Both properties erode one literal
at a time:

* **SL301** — a literal equal to a spec timing constant (10/20/50/192 µs
  or their ns forms) appearing *in a time-named context* (a ``*_us`` /
  ``*_ns`` parameter, target or arithmetic partner) outside the
  parameter modules is a copy of the spec that will not follow a
  calibration change.  Bare ``10.0``-style floats in non-time contexts
  (seconds, dB, metres) are deliberately ignored — the value match
  alone is far too common.
* **SL302** — float arithmetic on a ``*_ns`` value quietly reintroduces
  the drift integer nanoseconds exist to prevent.  Conversions belong
  in :mod:`repro.units`, wrapped in ``round()`` at the boundary.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.simlint.checker import Finding, ParsedModule

#: Files allowed to spell out spec timing constants: the unit helpers,
#: the parameter tables, the PLCP plan builder, and this rule's own
#: table.
TIMING_CONSTANT_HOMES = (
    "units.py",
    "core/params.py",
    "phy/plans.py",
    "simlint/rules/simtime.py",
)

#: 802.11b timing values (paper Table 1) in µs (floats) and ns (ints).
#: Matching is exact — a bare ``20`` is far too common to flag, but a
#: bare ``20.0`` or ``20_000`` in timing code is almost always the slot
#: time escaping from ``core/params.py``.
SPEC_TIMING_US = frozenset({10.0, 20.0, 50.0, 192.0, 96.0, 364.0})
SPEC_TIMING_NS = frozenset({10_000, 20_000, 50_000, 192_000, 96_000, 364_000})


def _in_allowed_file(module: ParsedModule) -> bool:
    return module.relpath.endswith(TIMING_CONSTANT_HOMES)


def _time_suffixed(name: str) -> bool:
    lowered = name.lower()
    return lowered.endswith(("_us", "_ns"))


def _names_time(node: ast.expr) -> bool:
    """Whether an expression is (or contains at its spine) a time name."""
    if isinstance(node, ast.Name):
        return _time_suffixed(node.id)
    if isinstance(node, ast.Attribute):
        return _time_suffixed(node.attr) or _names_time(node.value)
    if isinstance(node, ast.BinOp):
        return _names_time(node.left) or _names_time(node.right)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return _time_suffixed(func.id)
        if isinstance(func, ast.Attribute):
            return _time_suffixed(func.attr)
    return False


class SpecTimingLiteralRule:
    """SL301: magic 802.11b timing literal outside the parameter modules."""

    rule_id = "SL301"
    summary = (
        "magic timing literal in a *_us/*_ns context duplicates an "
        "802.11b spec constant; take it from core/params.py instead"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        if _in_allowed_file(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Constant):
                continue
            value = node.value
            if isinstance(value, bool):
                continue
            if isinstance(value, float) and value in SPEC_TIMING_US:
                unit, canonical = "µs", f"{value:g} µs"
            elif isinstance(value, int) and value in SPEC_TIMING_NS:
                unit, canonical = "ns", f"{value} ns"
            else:
                continue
            if not self._in_time_context(module, node):
                continue
            yield Finding(
                rule_id=self.rule_id,
                path=module.relpath,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"literal {canonical} duplicates an 802.11b spec timing "
                    f"constant ({unit} form); reference MacParameters / "
                    "PlcpParameters or name the value if it is coincidental"
                ),
            )

    @staticmethod
    def _in_time_context(module: ParsedModule, node: ast.Constant) -> bool:
        """Whether the literal sits somewhere time-named.

        Recognised contexts: a keyword argument / assignment target /
        function-parameter default whose name ends ``_us``/``_ns``, an
        arithmetic expression whose other spine carries such a name, or
        an argument to a unit-conversion helper (``us_to_ns`` ...).
        """
        current: ast.expr = node
        parent = module.parent(node)
        # Climb nested arithmetic first: in ``a_ns + b_ns + 50_000`` the
        # time-named sibling may sit one or more BinOps up.
        while isinstance(parent, ast.BinOp):
            sibling = parent.left if parent.right is current else parent.right
            if _names_time(sibling):
                return True
            current = parent
            parent = module.parent(parent)
        if isinstance(parent, ast.keyword) and parent.arg is not None:
            return _time_suffixed(parent.arg)
        if isinstance(parent, ast.Call):
            return _names_time(parent.func)
        if isinstance(parent, (ast.Assign, ast.AnnAssign)):
            targets = (
                parent.targets
                if isinstance(parent, ast.Assign)
                else [parent.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and _time_suffixed(target.id):
                    return True
                if isinstance(target, ast.Attribute) and _time_suffixed(
                    target.attr
                ):
                    return True
            return False
        if isinstance(parent, ast.Compare):
            spine = [parent.left, *parent.comparators]
            return any(
                _names_time(expr) for expr in spine if expr is not current
            )
        if isinstance(parent, ast.arguments):
            for argument, default in _defaults_with_args(parent):
                if default is current:
                    return _time_suffixed(argument.arg)
        return False


def _defaults_with_args(
    arguments: ast.arguments,
) -> Iterator[tuple[ast.arg, ast.expr]]:
    positional = arguments.posonlyargs + arguments.args
    for argument, default in zip(
        positional[len(positional) - len(arguments.defaults) :],
        arguments.defaults,
    ):
        yield argument, default
    for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
        if default is not None:
            yield argument, default


def _ends_in_ns(node: ast.expr) -> str | None:
    """The ``*_ns`` name an expression refers to, if any."""
    if isinstance(node, ast.Name) and node.id.endswith("_ns"):
        return node.id
    if isinstance(node, ast.Attribute) and node.attr.endswith("_ns"):
        return node.attr
    return None


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_literal(node.operand)
    return False


class FloatNanosecondArithmeticRule:
    """SL302: float arithmetic applied to a ``*_ns`` value."""

    rule_id = "SL302"
    summary = (
        "float arithmetic on a *_ns value reintroduces the drift integer "
        "nanoseconds prevent; convert via repro.units at the boundary"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        if module.relpath.endswith("units.py"):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.BinOp):
                continue
            ns_name = _ends_in_ns(node.left) or _ends_in_ns(node.right)
            if ns_name is None:
                continue
            if isinstance(node.op, ast.Div):
                if _ends_in_ns(node.right):
                    # Dividing *by* a ns quantity yields a dimensionless
                    # ratio (airtime shares, utilisation): no time value
                    # leaves integer land.
                    continue
                if self._rounded(module, node):
                    continue
                yield self._finding(
                    module,
                    node,
                    f"true division on {ns_name!r} produces a float time; "
                    "use // for slots or repro.units.ns_to_* at the boundary",
                )
            elif isinstance(node.op, (ast.Mult, ast.Add, ast.Sub)) and (
                _is_float_literal(node.left) or _is_float_literal(node.right)
            ):
                if self._rounded(module, node):
                    continue
                yield self._finding(
                    module,
                    node,
                    f"float literal combined with {ns_name!r}; scale in "
                    "integer ns or convert via repro.units first",
                )

    @staticmethod
    def _rounded(module: ParsedModule, node: ast.BinOp) -> bool:
        """True when an enclosing round()/int() re-integerises the value."""
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, ast.Call) and isinstance(
                ancestor.func, ast.Name
            ):
                if ancestor.func.id in {"round", "int"}:
                    return True
            if isinstance(ancestor, ast.stmt):
                break
        return False

    def _finding(
        self, module: ParsedModule, node: ast.BinOp, message: str
    ) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=module.relpath,
            line=node.lineno,
            col=node.col_offset,
            message=message,
        )


RULES = [SpecTimingLiteralRule, FloatNanosecondArithmeticRule]
