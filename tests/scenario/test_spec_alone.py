"""A new scenario is expressible and runnable from a spec file alone.

Uses the repo's shipped ``examples/exposed_terminal.json`` — no
experiment module, no Python wiring — through both the library API and
the ``repro80211 spec`` CLI command.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main
from repro.scenario import ScenarioSpec, apply_overrides, build

SPEC_PATH = (
    Path(__file__).resolve().parents[2] / "examples" / "exposed_terminal.json"
)


def _load() -> ScenarioSpec:
    return ScenarioSpec.from_json(SPEC_PATH.read_text(encoding="utf-8"))


def test_example_spec_builds_and_runs():
    spec = _load()
    net = build(spec)
    net.run(spec.duration_s)
    throughputs = [f.throughput_bps(spec.duration_s) for f in net.flows]
    assert len(throughputs) == 2
    # Both senders deliver; the nearer one wins most of the air time.
    assert all(t > 0 for t in throughputs)
    assert throughputs[0] > throughputs[1]


def test_example_spec_is_deterministic_across_rebuilds():
    spec = _load()
    digests = []
    for _ in range(2):
        net = build(ScenarioSpec.from_json(spec.to_json()))
        net.run(spec.duration_s)
        digests.append(json.dumps(net.tracer.counters(), sort_keys=True))
    assert digests[0] == digests[1]


def test_cli_spec_command_runs_the_file(capsys):
    assert main(["spec", str(SPEC_PATH), "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "exposed-terminal" in out
    assert "1->2" in out and "3->2" in out


def test_cli_spec_command_applies_overrides(capsys):
    assert (
        main(
            [
                "spec",
                str(SPEC_PATH),
                "--no-cache",
                "--set",
                "duration_s=1.0",
                "--set",
                "stack.rts_enabled=true",
            ]
        )
        == 0
    )
    assert "1->2" in capsys.readouterr().out


def test_cli_spec_command_rejects_unknown_override(capsys):
    assert (
        main(
            ["spec", str(SPEC_PATH), "--no-cache", "--set", "stack.turbo=true"]
        )
        == 1
    )
    err = capsys.readouterr().err
    assert "turbo" in err and "accepted" in err


def test_cli_spec_command_rejects_a_non_json_bool(capsys):
    # "False" is not JSON, so it stays a string and fails the bool field
    # instead of being read as true.
    assert (
        main(
            [
                "spec",
                str(SPEC_PATH),
                "--no-cache",
                "--set",
                "stack.rts_enabled=False",
            ]
        )
        == 1
    )
    assert "rts_enabled" in capsys.readouterr().err


def test_overrides_reach_the_build():
    spec = apply_overrides(_load(), {"stack.rts_enabled": True, "seed": 9})
    assert spec.stack.rts_enabled is True
    assert spec.seed == 9
    net = build(spec)
    assert net.spec is spec
