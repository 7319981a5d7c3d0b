"""SL7xx — unit/dimension dataflow over the project graph.

The simulator's numbers only mean anything with their units attached:
MAC timing is integer nanoseconds, link budgets flip between dBm (log,
additive for gains) and mW (linear, additive for powers), and the paper
comparisons quote µs and Mbit/s.  The naming contract (``*_ns``,
``*_us``, ``*_ms``, ``*_s``, ``*_dbm``, ``*_db``, ``*_mw``, ``*_bps``,
``*_mbps``) plus the :mod:`repro.units` converters make every unit
visible to a dataflow pass — these rules run that pass (see
:mod:`repro.simlint.project`) and flag the mixes it proves wrong:

* **SL701** — incompatible units combined additively: ns added to s,
  a µs value assigned to a ``*_ns`` target, Mbit/s compared to bit/s.
* **SL702** — logarithmic/linear power mixing: dB or dBm added to a
  mW total, or two dBm levels added (dBm is not additive).
* **SL703** — converter misuse: ``us_to_ns`` applied to a value that is
  already ns (double conversion) or provably not µs.
* **SL704** *(project-wide)* — a call argument whose inferred unit
  contradicts the callee parameter's suffix, resolved through imports
  across module boundaries.
* **SL705** *(project-wide)* — a bare ``float`` literal passed to a
  ``*_ns`` parameter: integer-nanosecond APIs taking ``2.5`` almost
  always mean someone thought the argument was seconds or µs.

SL701–703 need only the local pass; SL704/705 query the
:class:`~repro.simlint.project.ProjectGraph` that
:meth:`Checker.check_paths` builds from every linted module.
"""

from __future__ import annotations

from typing import Iterator

from repro.simlint.checker import Finding, ParsedModule
from repro.simlint.project import (
    ProjectGraph,
    local_unit_violations,
    unit_label,
)

#: The conversion home may mix freely — it is the boundary itself.
_UNIT_HOMES = ("units.py",)


def _exempt(relpath: str) -> bool:
    return relpath.endswith(_UNIT_HOMES)


class _LocalUnitRule:
    """Shared machinery: surface the local pass's findings for one id."""

    rule_id = ""
    summary = ""

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        if _exempt(module.relpath):
            return
        for rule_id, line, col, message in local_unit_violations(module):
            if rule_id != self.rule_id:
                continue
            yield Finding(
                rule_id=self.rule_id,
                path=module.relpath,
                line=line,
                col=col,
                message=message,
            )


class UnitMixRule(_LocalUnitRule):
    """SL701: incompatible units combined additively."""

    rule_id = "SL701"
    summary = (
        "incompatible units combined (ns/us/ms/s or bps/mbps mixed in "
        "arithmetic, comparison or assignment); convert via repro.units"
    )


class LogLinearPowerRule(_LocalUnitRule):
    """SL702: dB-domain and mW-domain power mixed."""

    rule_id = "SL702"
    summary = (
        "logarithmic power (dB/dBm) mixed with linear power (mW), or dBm "
        "added to dBm; powers add in mW, gains add in dB"
    )


class ConverterMisuseRule(_LocalUnitRule):
    """SL703: a repro.units-style converter fed the wrong unit."""

    rule_id = "SL703"
    summary = (
        "X_to_Y converter applied to a value that is not in X "
        "(double conversion or wrong source unit)"
    )


class CallArgumentUnitRule:
    """SL704: cross-module call argument unit contradicts the parameter."""

    rule_id = "SL704"
    summary = (
        "call argument unit contradicts the callee parameter's suffix "
        "(resolved project-wide through imports)"
    )

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        for summary, call, sig, param, arg in graph.iter_call_bindings():
            if _exempt(summary.relpath):
                continue
            if param.unit is None or arg.unit in (None, "1"):
                continue
            if arg.unit == param.unit:
                continue
            yield Finding(
                rule_id=self.rule_id,
                path=summary.relpath,
                line=call.line,
                col=call.col,
                message=(
                    f"{unit_label(arg.unit)} value passed to parameter "
                    f"{param.name!r} of {sig.module}.{sig.qualname}() which "
                    f"expects {unit_label(param.unit)}"
                ),
            )


class FloatLiteralNanosecondRule:
    """SL705: unit-less float literal crossing a ``*_ns`` API boundary."""

    rule_id = "SL705"
    summary = (
        "float literal passed to a *_ns parameter: integer-nanosecond "
        "APIs given floats usually mean a seconds/µs mix-up"
    )

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        for summary, call, sig, param, arg in graph.iter_call_bindings():
            if _exempt(summary.relpath):
                continue
            if param.unit != "ns" or arg.kind != "float":
                continue
            yield Finding(
                rule_id=self.rule_id,
                path=summary.relpath,
                line=call.line,
                col=call.col,
                message=(
                    f"float literal passed to nanosecond parameter "
                    f"{param.name!r} of {sig.module}.{sig.qualname}(); "
                    "nanoseconds are integers — convert via repro.units"
                ),
            )


RULES = [
    UnitMixRule,
    LogLinearPowerRule,
    ConverterMisuseRule,
    CallArgumentUnitRule,
    FloatLiteralNanosecondRule,
]
