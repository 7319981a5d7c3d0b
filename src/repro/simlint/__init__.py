"""``repro.simlint`` — simulator-specific static analysis.

The simulator's two load-bearing promises — bit-for-bit deterministic
replay and faithful 802.11b timing constants — are conventions a diff
review can easily miss (PR 2's ``Signal._ids`` class-attribute bug got
through one).  This package turns them into machine-checked invariants:

* **SL1xx determinism** — every random draw must flow through
  :class:`repro.sim.rng.RngManager`; no module-global ``random.*``,
  wall-clock entropy or unseeded ``random.Random()``.
* **SL2xx ordering** — no ``id()``-derived keys, no iteration over
  sets feeding simulation state (CPython reuses ids after GC and set
  order varies with hash seeding).
* **SL3xx sim-time hygiene** — 802.11b timing constants live in
  ``core/params.py`` / ``units.py`` / ``phy/plans.py`` only; integer
  nanosecond values stay integers.
* **SL4xx parallel safety** — no mutable class attributes on sim
  classes.
* **SL7xx unit/dimension dataflow** — units inferred from the naming
  contract (``*_ns``/``*_us``/``*_s``/``*_dbm``/``*_mw``/``*_bps``…)
  and from :mod:`repro.units` converters flow through assignments,
  returns and cross-module call arguments; mixing ns with s, adding dB
  to mW, double-converting, or feeding a bare float literal to a
  ``*_ns`` parameter is flagged (see :mod:`repro.simlint.project`).
* **SL8xx float order and scheduler tokens** — order-dependent float
  accumulation over sets, and slot/token API misuse (literal tokens,
  handles reused after ``cancel_slot``).

SL7xx's cross-module rules run on a whole-program import/symbol graph
built from the same parsed modules the per-file rules see.  The paper's
Table 1 constants themselves are pinned by ``tests/core/test_params.py``.

Run it as ``repro lint [--format text|json]``; findings can be waived
inline with ``# simlint: waive[SLnnn] -- justification``.  A justified
waiver that suppresses nothing is itself reported (SL003) so waivers
cannot outlive the code they excused.
"""

from __future__ import annotations

from repro.simlint.checker import Checker, Finding, ParsedModule
from repro.simlint.project import ModuleSummary, ProjectGraph, summarize_module
from repro.simlint.report import render_json, render_text

__all__ = [
    "Checker",
    "Finding",
    "ModuleSummary",
    "ParsedModule",
    "ProjectGraph",
    "render_json",
    "render_text",
    "summarize_module",
]
