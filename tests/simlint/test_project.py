"""The whole-program layer: naming, imports, unit inference, call bindings."""

import json
import tempfile
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simlint.checker import Checker, ParsedModule
from repro.simlint.cli import run as lint_run
from repro.simlint.project import (
    ProjectGraph,
    converter_units,
    local_unit_violations,
    mixing_violation,
    module_name_for,
    package_relpath,
    summarize_module,
    unit_from_name,
)
from repro.simlint.report import EXIT_FINDINGS


def parse_tree(root: Path, files: dict[str, str]) -> list[ParsedModule]:
    modules = []
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        modules.append(ParsedModule.parse(path, root=root))
    return modules


class TestUnitModel:
    @pytest.mark.parametrize(
        ("name", "unit"),
        [
            ("delay_us", "us"),
            ("elapsed_s", "s"),
            ("tx_power_dbm", "dbm"),
            ("NS_PER_S", "s"),
            ("s", None),  # bare single letters are not units
            ("ns", None),
            ("total", None),
            ("bonus", None),  # suffix must be underscore-separated
        ],
    )
    def test_unit_from_name(self, name, unit):
        assert unit_from_name(name) == unit

    @pytest.mark.parametrize(
        ("name", "units"),
        [
            ("us_to_ns", ("us", "ns")),
            ("dbm_to_mw", ("dbm", "mw")),
            ("db_to_linear", ("db", None)),
            ("mbps_to_bps", ("mbps", "bps")),
            ("schedule", None),
            ("foo_to_bar", None),
        ],
    )
    def test_converter_units(self, name, units):
        assert converter_units(name) == units

    def test_mixing_rules(self):
        assert mixing_violation("ns", "s")[0] == "SL701"
        assert mixing_violation("dbm", "mw")[0] == "SL702"
        assert mixing_violation("mw", "db")[0] == "SL702"
        assert mixing_violation("dbm", "db") is None  # gain applied to a level
        assert mixing_violation("ns", "ns") is None
        assert mixing_violation(None, "ns") is None
        assert mixing_violation("1", "ns") is None


class TestModuleNaming:
    def test_plain_module(self):
        assert module_name_for("repro/phy/kernel.py") == ("repro.phy.kernel", False)

    def test_package_init(self):
        assert module_name_for("repro/sim/__init__.py") == ("repro.sim", True)

    def test_top_level_file(self):
        assert module_name_for("snippet.py") == ("snippet", False)

    def test_package_relpath_walks_up_the_package_tree(self, tmp_path):
        parse_tree(
            tmp_path,
            {"src/pkg/__init__.py": "", "src/pkg/sub/__init__.py": "", "src/pkg/sub/mod.py": ""},
        )
        (tmp_path / "loose.py").write_text("", encoding="utf-8")
        assert package_relpath(tmp_path / "src/pkg/sub/mod.py") == "pkg/sub/mod.py"
        assert package_relpath(tmp_path / "src/pkg/__init__.py") == "pkg/__init__.py"
        assert package_relpath(tmp_path / "loose.py") == "loose.py"


SCHED_TREE = {
    "pkg/__init__.py": """\
        from pkg.sched import schedule
        """,
    "pkg/sched.py": """\
        def schedule(delay_ns: int) -> int:
            return delay_ns
        """,
    "pkg/timer.py": """\
        from .sched import schedule


        def arm(timeout_us: float) -> int:
            return schedule(timeout_us)
        """,
    "app.py": """\
        import pkg.sched as sched


        def go(timeout_us: float) -> int:
            return sched.schedule(timeout_us)
        """,
    "reexp.py": """\
        import pkg


        def go2(timeout_us: float) -> int:
            return pkg.schedule(timeout_us)
        """,
}


class TestImportResolution:
    def test_call_resolution_through_every_import_shape(self, tmp_path):
        modules = parse_tree(tmp_path, SCHED_TREE)
        graph = ProjectGraph.from_modules(modules)
        assert "pkg.sched.schedule" in graph.functions
        by_module = {summary.module: summary for summary in graph.summaries.values()}

        # Relative from-import, aliased module import, package re-export.
        for caller, callee in [
            ("pkg.timer", "schedule"),
            ("app", "sched.schedule"),
            ("reexp", "pkg.schedule"),
        ]:
            sig = graph.resolve_call(by_module[caller], callee)
            assert sig is not None, (caller, callee)
            assert sig.module == "pkg.sched"
            assert sig.name == "schedule"

    def test_unresolvable_call_is_skipped(self, tmp_path):
        modules = parse_tree(tmp_path, SCHED_TREE)
        graph = ProjectGraph.from_modules(modules)
        summary = summarize_module(modules[-1])
        assert graph.resolve_call(summary, "missing.thing") is None


class TestCrossModuleRules:
    def test_sl704_fires_across_every_import_shape(self, tmp_path):
        parse_tree(tmp_path, SCHED_TREE)
        findings = Checker().check_paths([tmp_path], root=tmp_path)
        sl704 = [f for f in findings if f.rule_id == "SL704"]
        assert {f.path for f in sl704} == {"pkg/timer.py", "app.py", "reexp.py"}
        assert all("timeout_us" not in f.path for f in sl704)
        assert {f.rule_id for f in findings} == {"SL704"}

    def test_sl704_is_the_same_by_default_root_and_by_explicit_path(
        self, tmp_path, monkeypatch, capsys
    ):
        parse_tree(
            tmp_path / "src",
            {
                "mypkg/__init__.py": "",
                "mypkg/sched.py": """\
                    def schedule(delay_ns: int) -> int:
                        return delay_ns
                    """,
                "mypkg/timer.py": """\
                    from mypkg.sched import schedule


                    def arm(timeout_us: float) -> int:
                        return schedule(timeout_us)
                    """,
            },
        )
        package = tmp_path / "src" / "mypkg"
        # The default scope lints a package from the directory above it.
        by_root = Checker().check_paths([package], root=package.parent)
        # ``repro lint src/mypkg`` from another working directory.
        monkeypatch.chdir(tmp_path)
        assert lint_run(["--format", "json", "src/mypkg"]) == EXIT_FINDINGS
        by_path = json.loads(capsys.readouterr().out)["findings"]
        assert [f.rule_id for f in by_root] == ["SL704"]
        assert [
            (f["rule"], f["path"], f["line"], f["col"], f["message"]) for f in by_path
        ] == [
            (f.rule_id, f"src/{f.path}", f.line, f.col, f.message) for f in by_root
        ]
        assert by_root[0].path == "mypkg/timer.py"

    def test_sl705_fires_on_float_literal_crossing_modules(self, tmp_path):
        parse_tree(
            tmp_path,
            {
                "sched.py": """\
                    def schedule(delay_ns: int) -> int:
                        return delay_ns
                    """,
                "caller.py": """\
                    from sched import schedule


                    def arm() -> int:
                        return schedule(250.5)
                    """,
            },
        )
        findings = Checker().check_paths([tmp_path], root=tmp_path)
        assert {f.rule_id for f in findings} == {"SL705"}
        (finding,) = findings
        assert finding.path == "caller.py"

    @pytest.mark.parametrize(
        "caller",
        [
            """\
            from sched import schedule


            def arm(timeout_us: float) -> int:
                return schedule(timeout_us)  # simlint: waive[SL704] -- legacy µs API
            """,
            """\
            from sched import schedule


            def arm(timeout_us: float) -> int:
                # simlint: waive[SL704] -- legacy µs API

                # A standalone waiver reaches past blank and comment lines.
                return schedule(timeout_us)
            """,
        ],
        ids=["same-line", "standalone-above"],
    )
    def test_project_findings_honour_waivers(self, tmp_path, caller):
        parse_tree(
            tmp_path,
            {
                "sched.py": """\
                    def schedule(delay_ns: int) -> int:
                        return delay_ns
                    """,
                "caller.py": caller,
            },
        )
        findings = Checker().check_paths([tmp_path], root=tmp_path)
        (finding,) = [f for f in findings if f.rule_id == "SL704"]
        assert finding.waived
        assert finding.waiver_reason == "legacy µs API"
        # The project pass used the waiver, so SL003 does not call it stale.
        assert [f.rule_id for f in findings] == ["SL704"]


# -- unit inference is a function of the code, not of import order ---------

IMPORT_LINES = (
    "import math",
    "from repro.units import us_to_ns",
    "from repro.units import dbm_to_mw",
    "from repro import units",
)

INFERENCE_BODY = """

def arm(timeout_us: float) -> int:
    delay_ns = us_to_ns(timeout_us)
    return delay_ns


def bad_power(tx_dbm: float, noise_mw: float) -> float:
    return tx_dbm + noise_mw
"""


def _inference_fingerprint(import_order: tuple[str, ...]):
    source = "\n".join(import_order) + "\n" + INFERENCE_BODY
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "perm.py"
        path.write_text(source, encoding="utf-8")
        module = ParsedModule.parse(path, root=Path(scratch))
        summary = summarize_module(module)
        return summary.functions, tuple(local_unit_violations(module))


@settings(max_examples=25, deadline=None)
@given(order=st.permutations(IMPORT_LINES))
def test_unit_inference_is_stable_under_import_reordering(order):
    baseline = _inference_fingerprint(IMPORT_LINES)
    permuted = _inference_fingerprint(tuple(order))
    assert permuted == baseline
    # The seeded SL702 is found regardless of import order.
    assert any(v[0] == "SL702" for v in permuted[1])
