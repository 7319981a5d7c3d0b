"""Render the analytical-validation grid as a JSON report.

Run from the repo root::

    PYTHONPATH=src python -m tests.conformance.report_grid > deltas.json

The report lists every point's model-vs-sim delta and exits 1 when a
point falls outside its band; CI does not run it, because the tests
job's ``test_saturation_conformance.py`` checks the same bands.
``--write-grid`` instead rewrites ``grid.json`` from the constants in
:mod:`tests.conformance.harness` (use after an intentional grid or
tolerance change, and commit the result).
"""

from __future__ import annotations

import json
import sys

from tests.conformance.harness import (
    GRID_PATH,
    grid_document,
    load_grid,
    run_point,
)


def main(argv: list[str]) -> int:
    if "--write-grid" in argv:
        GRID_PATH.write_text(
            json.dumps(grid_document(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {GRID_PATH}", file=sys.stderr)
        return 0
    defaults, points = load_grid()
    records = [run_point(defaults, point) for point in points]
    report = {
        "defaults": defaults,
        "points": records,
        "worst_abs_delta": max(abs(r["delta"]) for r in records),
        "failures": sum(1 for r in records if not r["ok"]),
    }
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0 if report["failures"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
