"""Spec-driven sweep points: the one cacheable entry into a scenario.

:func:`scenario_point` is the *single* function every experiment sweep
routes through: its parameters are the scenario's canonical
``to_dict`` document plus the dotted path of a metric extractor.  The
:class:`~repro.parallel.cache.SweepCache` therefore keys results on the
canonical spec serialisation (plus the sim-source version tag) — a cache
hit survives any refactor of experiment plumbing, and two experiments
asking for the same physical scenario share the entry.

Points carry the spec with a normalised stack
(:meth:`~repro.scenario.specs.StackSpec.normalised`): a ``stack.mac``
override that restates a default is dropped, so every spelling of one
network gives one document and one point key.  Within a sweep the
supervisor then simulates each distinct key once and copies the outcome
to every point that shares it.  That rests on the contract the cache
already relies on: a point is a pure function of its parameters.

Extractors are module-level functions ``extract(net, **extract_params)``
resolved by dotted path (like sweep point functions), so points stay
picklable and content-addressable.  They run after the scenario's
``duration_s`` has elapsed and may advance the simulation further
(e.g. draining in-flight probes) before reading their metric.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.parallel.engine import SweepPoint, resolve_point_fn, run_sweep
from repro.scenario.builder import build
from repro.scenario.network import ScenarioNetwork
from repro.scenario.specs import ScenarioSpec

#: Dotted path of :func:`scenario_point` — the ``fn`` of every
#: spec-driven :class:`~repro.parallel.engine.SweepPoint`.
SCENARIO_POINT_FN = "repro.scenario.points:scenario_point"


def scenario_point(
    spec: Mapping[str, Any],
    extract: str,
    extract_params: Mapping[str, Any] | None = None,
) -> Any:
    """Build, run and measure the scenario ``spec`` describes.

    ``spec`` is a :meth:`ScenarioSpec.to_dict` document (plain JSON so
    the point is picklable and cacheable); ``extract`` names the metric
    function ``"pkg.mod:fn"`` called as ``fn(net, **extract_params)``
    once the scenario's ``duration_s`` has run.  A retry reseeds the
    point through ``spec["seed"]``
    (:func:`repro.parallel.supervisor.perturbed_params`).
    """
    scenario = ScenarioSpec.from_dict(spec)
    net = build(scenario)
    net.run(scenario.duration_s)
    extractor = resolve_point_fn(extract)
    result = extractor(net, **dict(extract_params or {}))
    if net.recorder is not None:
        # Balance the books once the extractor (which may advance the
        # simulation further) is done; strict recorders raise here.
        net.recorder.finalize()
    return result


def scenario_sweep_points(
    specs: Iterable[ScenarioSpec],
    extract: str,
    extract_params: Mapping[str, Any] | None = None,
) -> list[SweepPoint]:
    """The :class:`SweepPoint` list for a batch of scenarios.

    Each point carries the spec's document with a normalised stack, so
    specs that build the same network get equal point keys.
    """
    points = []
    for spec in specs:
        if not isinstance(spec, ScenarioSpec):
            raise ConfigurationError(
                f"scenario sweeps take ScenarioSpec values, got "
                f"{type(spec).__name__}"
            )
        document = spec.to_dict()
        document["stack"] = spec.stack.normalised().to_dict()
        params: dict[str, Any] = {"spec": document, "extract": extract}
        if extract_params:
            params["extract_params"] = dict(extract_params)
        points.append(SweepPoint(fn=SCENARIO_POINT_FN, params=params))
    return points


def run_scenarios(
    specs: Sequence[ScenarioSpec],
    extract: str,
    extract_params: Mapping[str, Any] | None = None,
    jobs: int = 1,
    cache: Any = None,
    policy: Any = None,
) -> list[Any]:
    """Sweep a batch of scenarios through the parallel engine.

    Results come back in spec order, and specs that build the same
    network are simulated once; serial (``jobs=1``), pooled and
    warm-cache runs are interchangeable.  ``policy`` (timeout, retries
    and ``on_error``) flows into the supervised executor — see
    :func:`repro.parallel.run_sweep`.
    """
    return run_sweep(
        scenario_sweep_points(specs, extract, extract_params),
        jobs=jobs,
        cache=cache,
        policy=policy,
    )


# ---------------------------------------------------------------------------
# Generic extractor (experiment modules define richer ones).


def flow_throughputs_kbps(net: ScenarioNetwork) -> list[list[Any]]:
    """``[label, kbps]`` rows for every flow (session-table shape)."""
    assert net.spec is not None
    horizon_s = net.spec.duration_s
    return [
        [handle.label, handle.throughput_bps(horizon_s) / 1e3]
        for handle in net.flows
    ]
