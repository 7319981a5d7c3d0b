"""Whole-program layer: import graph, signatures and unit inference.

PR 3's linter reasons about one :class:`~repro.simlint.checker.ParsedModule`
at a time, which is enough for syntactic hazards (``id()`` keys, stray
``random`` imports) but blind to the bug classes PR 7 introduced: a
nanosecond value flowing into a microsecond parameter two modules away,
or a dBm level added to a milliwatt total after a conversion was lost in
a refactor.  This module gives rules a project-wide view:

* :func:`summarize_module` distils one parsed module into a
  :class:`ModuleSummary` — resolved imports, module-level function
  signatures with *inferred unit annotations*, and every call site with
  the inferred units of its arguments.
* :class:`ProjectGraph` joins the summaries of every linted module and
  resolves call references through ``import`` / ``from … import``
  (including relative forms) to the signature of the callee, so rules
  can check cross-module calls mechanically.
* :class:`UnitInferencer` is the dataflow engine behind both: a forward
  pass per scope that seeds units from the repo's naming contract
  (``*_ns``/``*_us``/``*_ms``/``*_s`` for time, ``*_dbm``/``*_db``/
  ``*_mw`` for power, ``*_bps``/``*_mbps`` for rate), treats the
  ``repro.units`` converters as unit casts (``us_to_ns(x)`` yields ns
  and *demands* µs), and propagates units through assignments,
  arithmetic, returns and call arguments.  Mixing incompatible units is
  reported through the SL7xx rules in
  :mod:`repro.simlint.rules.units_flow`.

The inference is deliberately conservative: a unit is only ever
attached to a value the naming contract or a converter vouches for, and
rules stay silent whenever either side of an operation is unknown.
Named per-unit constants (``NS_PER_S`` and friends) read as their
target unit, so ``duration_ns / NS_PER_S`` is a recognised conversion
while ``duration_ns * 1e-9`` is not — magic-number conversions are
exactly what the rules exist to flag.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from repro.simlint.checker import ParsedModule

#: Recognised unit suffixes, grouped by dimension.
TIME_UNITS = ("ns", "us", "ms", "s")
LOG_POWER_UNITS = ("dbm", "db")
LINEAR_POWER_UNITS = ("mw",)
RATE_UNITS = ("bps", "mbps")

#: Every unit the naming contract recognises.
UNITS = frozenset(TIME_UNITS + LOG_POWER_UNITS + LINEAR_POWER_UNITS + RATE_UNITS)

#: Pseudo-unit for dimensionless values (bare literals, ratios).
UNITLESS = "1"

_CONVERTER_RE = re.compile(r"^([a-z]+)_to_([a-z]+)$")


def unit_from_name(name: str) -> str | None:
    """The unit a ``*_ns``-style suffixed name declares, if any.

    Only an underscore-separated suffix counts: ``delay_us`` is µs but a
    bare ``s`` or ``ns`` variable is not a unit (single-letter names are
    far too common for loop variables and strings).
    """
    head, sep, tail = name.lower().rpartition("_")
    if sep and head and tail in UNITS:
        return tail
    return None


def converter_units(name: str) -> tuple[str | None, str | None] | None:
    """``(from_unit, to_unit)`` when ``name`` is an ``X_to_Y`` converter.

    Matches the :mod:`repro.units` naming scheme (``us_to_ns``,
    ``dbm_to_mw``, ``db_to_linear``, …).  A side that is not a known
    unit (``linear``) comes back as ``None`` — the cast still conveys
    the other side.
    """
    match = _CONVERTER_RE.match(name.lower())
    if match is None:
        return None
    source, target = match.group(1), match.group(2)
    if source not in UNITS and target not in UNITS:
        return None
    return (
        source if source in UNITS else None,
        target if target in UNITS else None,
    )


def dimension(unit: str | None) -> str | None:
    """The dimension class of a unit (``time``/``log``/``linear``/``rate``)."""
    if unit in TIME_UNITS:
        return "time"
    if unit in LOG_POWER_UNITS:
        return "log"
    if unit in LINEAR_POWER_UNITS:
        return "linear"
    if unit in RATE_UNITS:
        return "rate"
    return None


def unit_label(unit: str) -> str:
    """Human spelling of a unit for messages (``dbm`` → ``dBm``)."""
    return {
        "ns": "ns",
        "us": "µs",
        "ms": "ms",
        "s": "s",
        "dbm": "dBm",
        "db": "dB",
        "mw": "mW",
        "bps": "bit/s",
        "mbps": "Mbit/s",
    }.get(unit, unit)


def mixing_violation(left: str | None, right: str | None) -> tuple[str, str] | None:
    """``(rule_id, description)`` when combining two units additively is wrong.

    Additive here means ``+``/``-``/comparison/assignment — contexts
    where both operands must carry the same unit.  Valid mixed-unit
    algebra is excused: dBm ± dB applies a gain, dBm − dBm yields a dB
    ratio.  Unknown or dimensionless sides never fire.
    """
    if left in (None, UNITLESS) or right in (None, UNITLESS):
        return None
    if left == right:
        return None
    left_dim, right_dim = dimension(left), dimension(right)
    if {left_dim, right_dim} == {"log", "linear"}:
        return (
            "SL702",
            f"{unit_label(left)} (logarithmic) combined with "
            f"{unit_label(right)} (linear power)",
        )
    if left_dim == "log" and right_dim == "log":
        # dbm/db pairs: handled by the caller for the one bad case
        # (dBm + dBm); everything else is legitimate link-budget algebra.
        return None
    return (
        "SL701",
        f"{unit_label(left)} combined with {unit_label(right)}",
    )


# --------------------------------------------------------------------------
# Summary data model (all hashable building blocks)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamInfo:
    """One function parameter and the unit its name declares."""

    name: str
    unit: str | None


@dataclass(frozen=True)
class FunctionSig:
    """One function definition, with inferred unit annotations."""

    module: str
    qualname: str
    name: str
    lineno: int
    params: tuple[ParamInfo, ...]
    kwonly: tuple[ParamInfo, ...]
    has_vararg: bool
    return_unit: str | None

    @property
    def is_public(self) -> bool:
        return not self.name.startswith("_")

    def param_named(self, name: str) -> ParamInfo | None:
        for param in self.params + self.kwonly:
            if param.name == name:
                return param
        return None


@dataclass(frozen=True)
class ArgInfo:
    """One call argument: inferred unit plus literal kind."""

    unit: str | None
    #: ``"float"`` / ``"int"`` for bare numeric literals, else ``"expr"``.
    kind: str


@dataclass(frozen=True)
class CallSite:
    """One call whose callee is a plain (possibly dotted) name."""

    callee: str
    line: int
    col: int
    args: tuple[ArgInfo, ...]
    kwargs: tuple[tuple[str, ArgInfo], ...]
    has_star: bool


@dataclass(frozen=True)
class ModuleSummary:
    """Everything the project pass needs to know about one module."""

    module: str
    relpath: str
    is_package: bool
    #: ``local name -> dotted target`` for every import binding.
    imports: tuple[tuple[str, str], ...]
    functions: tuple[FunctionSig, ...]
    calls: tuple[CallSite, ...]


def package_relpath(path: Path) -> str:
    """``path`` below the directory that holds its outermost package.

    Walks up from the file while each directory holds an
    ``__init__.py``, so ``src/repro/phy/plans.py`` gives
    ``repro/phy/plans.py`` whatever directory the linter runs from.  A
    file outside any package is named by itself.
    """
    path = path.resolve()
    parts = [path.name]
    directory = path.parent
    while directory != directory.parent and (directory / "__init__.py").is_file():
        parts.append(directory.name)
        directory = directory.parent
    return "/".join(reversed(parts))


def module_name_for(relpath: str) -> tuple[str, bool]:
    """``(dotted module name, is_package)`` for a package-relative path."""
    parts = relpath.replace("\\", "/").split("/")
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    is_package = parts[-1] == "__init__"
    if is_package:
        parts = parts[:-1]
    return ".".join(part for part in parts if part), is_package


def extract_imports(
    tree: ast.Module, module: str, is_package: bool
) -> tuple[tuple[str, str], ...]:
    """Resolve every import statement to ``(local name, dotted target)``."""
    bindings: list[tuple[str, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    bindings.append((alias.asname, alias.name))
                else:
                    head = alias.name.split(".")[0]
                    bindings.append((head, head))
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative import: level 1 is the containing package
                # (the module itself when it is an ``__init__``).
                anchor_parts = module.split(".") if module else []
                drop = node.level - (1 if is_package else 0)
                if drop:
                    anchor_parts = anchor_parts[: len(anchor_parts) - drop]
                base_parts = anchor_parts + (
                    node.module.split(".") if node.module else []
                )
            else:
                base_parts = node.module.split(".") if node.module else []
            base = ".".join(base_parts)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                target = f"{base}.{alias.name}" if base else alias.name
                bindings.append((local, target))
    return tuple(bindings)


# --------------------------------------------------------------------------
# Unit inference
# --------------------------------------------------------------------------


@dataclass
class InferenceResult:
    """What one module-level inference pass produces."""

    functions: list[FunctionSig] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    #: ``(rule_id, line, col, message)`` — materialised into findings by
    #: the SL7xx rules so this module stays independent of rule classes.
    violations: list[tuple[str, int, int, str]] = field(default_factory=list)


class UnitInferencer:
    """Forward-pass unit inference over one module.

    One instance per module; :meth:`run` walks the module body and every
    function in source order, keeping a per-scope ``name -> unit``
    environment.  Declared suffixes win over inferred values (assigning
    a µs expression to ``deadline_ns`` keeps the target ns — and flags
    the mix).
    """

    def __init__(self, module_tree: ast.Module, module_name: str):
        self._tree = module_tree
        self._module = module_name
        self._module_env: dict[str, str | None] = {}
        self._result = InferenceResult()

    def run(self) -> InferenceResult:
        self._process_body(self._tree.body, self._module_env, qualprefix="")
        return self._result

    # -- statements --------------------------------------------------------

    def _process_body(
        self,
        body: Sequence[ast.stmt],
        env: dict[str, str | None],
        qualprefix: str,
    ) -> list[str | None]:
        returns: list[str | None] = []
        for stmt in body:
            returns.extend(self._process_stmt(stmt, env, qualprefix))
        return returns

    def _process_stmt(
        self,
        stmt: ast.stmt,
        env: dict[str, str | None],
        qualprefix: str,
    ) -> list[str | None]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._process_function(stmt, qualprefix)
            return []
        if isinstance(stmt, ast.ClassDef):
            class_prefix = (
                f"{qualprefix}.{stmt.name}" if qualprefix else stmt.name
            )
            class_env: dict[str, str | None] = dict(self._module_env)
            self._process_body(stmt.body, class_env, class_prefix)
            return []
        if isinstance(stmt, ast.Assign):
            unit = self._unit_of(stmt.value, env)
            for target in stmt.targets:
                self._bind_target(target, unit, env, stmt.value)
            return []
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                unit = self._unit_of(stmt.value, env)
                self._bind_target(stmt.target, unit, env, stmt.value)
            return []
        if isinstance(stmt, ast.AugAssign):
            value_unit = self._unit_of(stmt.value, env)
            target_unit = self._target_unit(stmt.target, env)
            if isinstance(stmt.op, (ast.Add, ast.Sub)):
                self._check_mix(
                    target_unit, value_unit, stmt.value, "augmented assignment"
                )
            return []
        if isinstance(stmt, ast.Return):
            if stmt.value is None:
                return [None]
            return [self._unit_of(stmt.value, env)]
        # Generic statement: infer over expression children, recurse into
        # statement-list children (If/For/While/With/Try bodies share the
        # enclosing environment — the pass is flow-insensitive).
        returns: list[str | None] = []
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._unit_of(child, env)
            elif isinstance(child, ast.stmt):
                returns.extend(self._process_stmt(child, env, qualprefix))
            elif isinstance(child, (ast.excepthandler,)):
                returns.extend(self._process_body(child.body, env, qualprefix))
            elif isinstance(child, (ast.withitem,)):
                self._unit_of(child.context_expr, env)
        return returns

    def _process_function(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef, qualprefix: str
    ) -> None:
        env: dict[str, str | None] = dict(self._module_env)
        params: list[ParamInfo] = []
        for arg in fn.args.posonlyargs + fn.args.args:
            unit = unit_from_name(arg.arg)
            env[arg.arg] = unit
            params.append(ParamInfo(name=arg.arg, unit=unit))
        kwonly: list[ParamInfo] = []
        for arg in fn.args.kwonlyargs:
            unit = unit_from_name(arg.arg)
            env[arg.arg] = unit
            kwonly.append(ParamInfo(name=arg.arg, unit=unit))
        for default in list(fn.args.defaults) + [
            d for d in fn.args.kw_defaults if d is not None
        ]:
            self._unit_of(default, env)
        return_units = self._process_body(fn.body, env, self._qual(qualprefix, fn.name))
        declared = unit_from_name(fn.name)
        inferred = self._common_unit(return_units)
        if declared is not None and inferred not in (None, UNITLESS, declared):
            violation = mixing_violation(declared, inferred)
            if violation is not None:
                rule_id, _ = violation
                assert inferred is not None
                self._result.violations.append(
                    (
                        rule_id,
                        fn.lineno,
                        fn.col_offset,
                        f"function {fn.name!r} declares {unit_label(declared)} "
                        f"by suffix but returns {unit_label(inferred)} values",
                    )
                )
        qualname = self._qual(qualprefix, fn.name)
        self._result.functions.append(
            FunctionSig(
                module=self._module,
                qualname=qualname,
                name=fn.name,
                lineno=fn.lineno,
                params=tuple(params),
                kwonly=tuple(kwonly),
                has_vararg=fn.args.vararg is not None or fn.args.kwarg is not None,
                return_unit=declared if declared is not None else inferred,
            )
        )

    @staticmethod
    def _qual(prefix: str, name: str) -> str:
        return f"{prefix}.{name}" if prefix else name

    @staticmethod
    def _common_unit(units: Sequence[str | None]) -> str | None:
        known = {unit for unit in units if unit not in (None, UNITLESS)}
        if len(known) == 1:
            return next(iter(known))
        return None

    # -- binding and mixing ------------------------------------------------

    def _bind_target(
        self,
        target: ast.expr,
        value_unit: str | None,
        env: dict[str, str | None],
        value: ast.expr,
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, None, env, value)
            return
        declared: str | None = None
        name: str | None = None
        if isinstance(target, ast.Name):
            declared = unit_from_name(target.id)
            name = target.id
        elif isinstance(target, ast.Attribute):
            declared = unit_from_name(target.attr)
        if declared is not None:
            self._check_mix(declared, value_unit, value, "assignment")
        if name is not None:
            env[name] = declared if declared is not None else value_unit

    def _target_unit(self, target: ast.expr, env: dict[str, str | None]) -> str | None:
        if isinstance(target, ast.Name):
            declared = unit_from_name(target.id)
            return declared if declared is not None else env.get(target.id)
        if isinstance(target, ast.Attribute):
            return unit_from_name(target.attr)
        return None

    def _check_mix(
        self,
        left: str | None,
        right: str | None,
        node: ast.expr,
        context: str,
    ) -> None:
        violation = mixing_violation(left, right)
        if violation is None:
            return
        rule_id, description = violation
        self._result.violations.append(
            (
                rule_id,
                node.lineno,
                node.col_offset,
                f"{description} in {context}; convert via repro.units at the "
                "boundary",
            )
        )

    # -- expressions -------------------------------------------------------

    def _unit_of(self, node: ast.expr, env: dict[str, str | None]) -> str | None:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(
                node.value, (int, float)
            ):
                return None
            return UNITLESS
        if isinstance(node, ast.Name):
            declared = unit_from_name(node.id)
            if declared is not None:
                return declared
            return env.get(node.id)
        if isinstance(node, ast.Attribute):
            self._unit_of(node.value, env)
            return unit_from_name(node.attr)
        if isinstance(node, ast.UnaryOp):
            return self._unit_of(node.operand, env)
        if isinstance(node, ast.BinOp):
            return self._binop_unit(node, env)
        if isinstance(node, ast.Compare):
            self._compare_units(node, env)
            return None
        if isinstance(node, ast.Call):
            return self._call_unit(node, env)
        if isinstance(node, ast.IfExp):
            self._unit_of(node.test, env)
            body = self._unit_of(node.body, env)
            orelse = self._unit_of(node.orelse, env)
            return body if body == orelse else None
        # Generic fallthrough: visit every child expression (so call
        # sites and mixes nested in comprehensions, f-strings, subscripts
        # and the like are still seen) but claim no unit.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._unit_of(child, env)
            elif isinstance(child, ast.comprehension):
                self._unit_of(child.iter, env)
                for condition in child.ifs:
                    self._unit_of(condition, env)
        return None

    def _binop_unit(self, node: ast.BinOp, env: dict[str, str | None]) -> str | None:
        left = self._unit_of(node.left, env)
        right = self._unit_of(node.right, env)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if (
                isinstance(node.op, ast.Add)
                and left == "dbm"
                and right == "dbm"
            ):
                self._result.violations.append(
                    (
                        "SL702",
                        node.lineno,
                        node.col_offset,
                        "adding two dBm values is not physical (dBm is "
                        "logarithmic); convert to mW to sum powers",
                    )
                )
                return None
            self._check_mix(left, right, node, "arithmetic")
            if left == right:
                return left
            if left in (None, UNITLESS):
                return right if left == UNITLESS else None
            if right in (None, UNITLESS):
                return left if right == UNITLESS else None
            return None
        if isinstance(node.op, ast.Mult):
            if left == UNITLESS and right not in (None, UNITLESS):
                return right
            if right == UNITLESS and left not in (None, UNITLESS):
                return left
            if left == UNITLESS and right == UNITLESS:
                return UNITLESS
            return None
        if isinstance(node.op, (ast.Div, ast.FloorDiv, ast.Mod)):
            if left not in (None, UNITLESS) and right == UNITLESS:
                return left
            if left == right and left not in (None, UNITLESS):
                return UNITLESS
            if left == UNITLESS and right == UNITLESS:
                return UNITLESS
            return None
        return None

    def _compare_units(self, node: ast.Compare, env: dict[str, str | None]) -> None:
        spine = [node.left, *node.comparators]
        units = [self._unit_of(expr, env) for expr in spine]
        for index in range(len(units) - 1):
            self._check_mix(
                units[index], units[index + 1], spine[index + 1], "comparison"
            )

    def _call_unit(self, node: ast.Call, env: dict[str, str | None]) -> str | None:
        callee = _callee_ref(node.func)
        arg_infos: list[ArgInfo] = []
        has_star = bool(node.keywords) and any(
            keyword.arg is None for keyword in node.keywords
        )
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                has_star = True
                self._unit_of(arg.value, env)
                continue
            arg_infos.append(ArgInfo(unit=self._unit_of(arg, env), kind=_literal_kind(arg)))
        kwarg_infos: list[tuple[str, ArgInfo]] = []
        for keyword in node.keywords:
            if keyword.arg is None:
                self._unit_of(keyword.value, env)
                continue
            kwarg_infos.append(
                (
                    keyword.arg,
                    ArgInfo(
                        unit=self._unit_of(keyword.value, env),
                        kind=_literal_kind(keyword.value),
                    ),
                )
            )
        if isinstance(node.func, (ast.Lambda, ast.Call, ast.Subscript)):
            self._unit_of(node.func, env)
        if callee is not None:
            self._result.calls.append(
                CallSite(
                    callee=callee,
                    line=node.lineno,
                    col=node.col_offset,
                    args=tuple(arg_infos),
                    kwargs=tuple(kwarg_infos),
                    has_star=has_star,
                )
            )
        func_name = callee.rpartition(".")[2] if callee is not None else None
        if func_name is not None:
            cast = converter_units(func_name)
            if cast is not None:
                source, target = cast
                if (
                    source is not None
                    and len(arg_infos) == 1
                    and arg_infos[0].unit not in (None, UNITLESS, source)
                ):
                    argument_unit = arg_infos[0].unit
                    assert argument_unit is not None
                    hint = (
                        "already in the target unit — double conversion"
                        if argument_unit == target
                        else "not in the converter's input unit"
                    )
                    self._result.violations.append(
                        (
                            "SL703",
                            node.lineno,
                            node.col_offset,
                            f"{func_name}() applied to a "
                            f"{unit_label(argument_unit)} value ({hint})",
                        )
                    )
                return target
            declared = unit_from_name(func_name)
            if declared is not None:
                return declared
        return None


def _callee_ref(func: ast.expr) -> str | None:
    """Dotted name of a call target built purely from Names, else None."""
    parts: list[str] = []
    current = func
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def _literal_kind(node: ast.expr) -> str:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _literal_kind(node.operand)
    if isinstance(node, ast.Constant) and not isinstance(node.value, bool):
        if isinstance(node.value, float):
            return "float"
        if isinstance(node.value, int):
            return "int"
    return "expr"


def _inference_for(module: ParsedModule) -> InferenceResult:
    """The (memoised) unit-inference result for one parsed module.

    Three SL7xx rules and the summariser all consume the same pass;
    caching it on the module keeps lint wall-clock flat.
    """
    cached = module.__dict__.get("_unit_inference")
    if cached is None:
        name, _ = module_name_for(package_relpath(module.path))
        cached = UnitInferencer(module.tree, name).run()
        module.__dict__["_unit_inference"] = cached
    return cached


def summarize_module(module: ParsedModule) -> ModuleSummary:
    """Distil one parsed module into its project summary.

    The dotted name comes from the package tree (:func:`package_relpath`);
    ``relpath``, which reports print, stays relative to the lint root.
    """
    name, is_package = module_name_for(package_relpath(module.path))
    inference = _inference_for(module)
    return ModuleSummary(
        module=name,
        relpath=module.relpath,
        is_package=is_package,
        imports=extract_imports(module.tree, name, is_package),
        functions=tuple(inference.functions),
        calls=tuple(inference.calls),
    )


def local_unit_violations(module: ParsedModule) -> list[tuple[str, int, int, str]]:
    """The SL701/702/703 raw violations for one module (no project view)."""
    return _inference_for(module).violations


class ProjectGraph:
    """The joined view over every module summary in one lint run."""

    def __init__(self, summaries: Mapping[str, ModuleSummary]):
        #: module name -> summary
        self.summaries: dict[str, ModuleSummary] = dict(summaries)
        #: fully-qualified ``pkg.mod.func`` -> signature (module level only)
        self.functions: dict[str, FunctionSig] = {}
        for summary in self.summaries.values():
            for sig in summary.functions:
                if sig.qualname == sig.name:  # module-level only
                    self.functions[f"{summary.module}.{sig.name}"] = sig

    @classmethod
    def from_modules(cls, modules: Sequence[ParsedModule]) -> "ProjectGraph":
        return cls(
            {
                summary.module: summary
                for summary in (summarize_module(module) for module in modules)
            }
        )

    def resolve_call(
        self, summary: ModuleSummary, callee: str
    ) -> FunctionSig | None:
        """The signature a dotted call reference names, through imports."""
        parts = callee.split(".")
        imports = dict(summary.imports)
        if parts[0] in imports:
            target = ".".join([imports[parts[0]], *parts[1:]])
        elif len(parts) == 1:
            target = f"{summary.module}.{callee}" if summary.module else callee
        else:
            return None
        sig = self.functions.get(target)
        if sig is not None:
            return sig
        # One re-export hop: ``from repro import units`` then
        # ``units.us_to_ns`` resolves through the package summary.
        if len(parts) > 1:
            head, _, rest = target.rpartition(".")
            package = self.summaries.get(head)
            if package is not None and package.is_package:
                for local, reexport in package.imports:
                    if local == rest:
                        return self.functions.get(reexport)
        return None

    def iter_call_bindings(
        self,
    ) -> Iterator[tuple[ModuleSummary, CallSite, FunctionSig, ParamInfo, ArgInfo]]:
        """Every ``(caller, call, callee, parameter, argument)`` binding.

        Positional arguments are matched in order; calls with star
        arguments or arity the signature cannot hold are skipped rather
        than guessed at.  Keyword arguments match by name.
        """
        for summary in self.summaries.values():
            for call in summary.calls:
                sig = self.resolve_call(summary, call.callee)
                if sig is None:
                    continue
                if not call.has_star and len(call.args) <= len(sig.params):
                    for param, arg in zip(sig.params, call.args):
                        yield summary, call, sig, param, arg
                for name, arg in call.kwargs:
                    param = sig.param_named(name)
                    if param is not None:
                        yield summary, call, sig, param, arg
