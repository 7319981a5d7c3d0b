"""SL1xx — determinism: all randomness flows through ``RngManager``.

Two runs with the same master seed must be bit-for-bit identical.  That
breaks the moment any component draws from the process-global ``random``
module (whose state is shared and seeded from OS entropy), from the wall
clock, or from an unseeded ``random.Random()``.  The blessed pattern is
a named substream::

    rng = rng_manager.stream("mac.backoff")

``random.Random(seed)`` *with* an explicit seed is tolerated — it is
deterministic — but module-level draws never are.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.simlint.checker import Finding, ParsedModule

#: ``random`` module attributes that are *not* draws (safe to touch).
_NON_DRAW_ATTRS = frozenset({"Random", "SystemRandom"})

#: Wall-clock / OS-entropy calls that leak host state into a simulation.
#: ``time.monotonic`` / ``perf_counter`` are deliberately absent: they
#: are the right tools for sweep-point deadlines and benchmarks, which
#: never feed simulated state.
_ENTROPY_CALLS = {
    ("time", "time"): "wall-clock time",
    ("time", "time_ns"): "wall-clock time",
    ("os", "urandom"): "OS entropy",
    ("uuid", "uuid1"): "host/clock-derived UUID",
    ("uuid", "uuid4"): "OS-entropy UUID",
    ("secrets", "token_bytes"): "OS entropy",
    ("secrets", "token_hex"): "OS entropy",
    ("datetime", "now"): "wall-clock time",
    ("datetime", "utcnow"): "wall-clock time",
}


def _call_target(node: ast.Call) -> tuple[str, str] | None:
    """``("module_or_object", "attr")`` for an ``x.y(...)`` call."""
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return (func.value.id, func.attr)
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Attribute)
        and isinstance(func.value.value, ast.Name)
    ):
        # datetime.datetime.now(...) — collapse to ("datetime", "now").
        return (func.value.attr, func.attr)
    return None


class ModuleGlobalRandomRule:
    """SL101: draw from the process-global ``random`` module."""

    rule_id = "SL101"
    summary = (
        "module-global random.* draw; use RngManager.stream(name) so the "
        "draw is covered by the master seed"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = _call_target(node)
            if target is None or target[0] != "random":
                continue
            attr = target[1]
            if attr in _NON_DRAW_ATTRS:
                continue
            yield Finding(
                rule_id=self.rule_id,
                path=module.relpath,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"random.{attr}() draws from the shared module-global "
                    "generator; route the draw through RngManager.stream()"
                ),
            )


class UnseededRandomRule:
    """SL102: ``random.Random()`` with no seed argument."""

    rule_id = "SL102"
    summary = "unseeded random.Random() seeds itself from OS entropy"

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = _call_target(node)
            is_module_random = target == ("random", "Random")
            is_bare_random = (
                isinstance(node.func, ast.Name) and node.func.id == "Random"
            )
            if not (is_module_random or is_bare_random):
                continue
            if node.args or node.keywords:
                continue
            yield Finding(
                rule_id=self.rule_id,
                path=module.relpath,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    "random.Random() without a seed draws its state from OS "
                    "entropy; pass an explicit seed or use RngManager.stream()"
                ),
            )


class WallClockEntropyRule:
    """SL103: wall-clock / OS-entropy calls in simulation code."""

    rule_id = "SL103"
    summary = "wall-clock or OS-entropy call leaks host state into the sim"

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = _call_target(node)
            if target is None:
                continue
            description = _ENTROPY_CALLS.get(target)
            if description is None:
                continue
            yield Finding(
                rule_id=self.rule_id,
                path=module.relpath,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"{target[0]}.{target[1]}() injects {description}; "
                    "simulation state must derive from sim.now_ns and "
                    "RngManager only"
                ),
            )


class FunctionLocalRandomImportRule:
    """SL104: ``import random`` buried inside a function body."""

    rule_id = "SL104"
    summary = (
        "function-local 'import random' hides a randomness dependency "
        "from the seed discipline"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Import):
                continue
            if not any(alias.name == "random" for alias in node.names):
                continue
            if module.enclosing_function(node) is None:
                continue
            yield Finding(
                rule_id=self.rule_id,
                path=module.relpath,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    "'import random' inside a function: draws made here are "
                    "invisible to the module's seed audit; import at module "
                    "level and route draws through RngManager"
                ),
            )


RULES = [
    ModuleGlobalRandomRule,
    UnseededRandomRule,
    WallClockEntropyRule,
    FunctionLocalRandomImportRule,
]
