"""Experiment registry: name -> runner producing printable output.

Every shim declares its tunable parameters explicitly — there is no
``**kwargs`` sink silently eating a misspelt ``--set`` key.  The runner
goes through :meth:`Experiment.invoke`, which

* filters the harness-level keywords (``seed``, ``jobs``, ``cache``,
  ``policy``, ...) down to what the shim actually accepts, and
* rejects *user* overrides naming unknown parameters with an
  :class:`~repro.errors.ExperimentError` that lists the accepted keys.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.errors import ExperimentError
from repro.experiments.four_nodes import (
    format_four_node,
    run_figure7,
    run_figure9,
    run_figure11,
    run_figure12,
)
from repro.experiments.ranges import (
    format_loss_curves,
    format_table3,
    run_figure3,
    run_figure4,
    run_table3,
)
from repro.experiments.table2 import format_table2, run_table2
from repro.experiments.two_nodes import format_figure2, run_figure2
from repro.experiments.delay import format_delay_sweep, run_delay_sweep
from repro.experiments.mobility import format_link_lifetimes, run_link_lifetimes
from repro.experiments.multihop import (
    format_density_sweep,
    format_multihop_sweep,
    run_density_sweep,
    run_multihop_sweep,
)
from repro.experiments.ratecontrol import format_arf_sweep, run_arf_sweep


@dataclass(frozen=True)
class Experiment:
    """A runnable, printable experiment."""

    name: str
    description: str
    run: Callable[..., str]
    #: Dotted ``--set`` aliases for shim parameters that address nested
    #: scenario-spec fields: ``{"stack.mac.cw_min_slots": "cw_min"}``
    #: lets the CLI use the same dotted path the spec document and the
    #: sweep axes use, and the accepted-keys error lists both forms.
    spec_params: Mapping[str, str] = field(default_factory=dict)

    def accepted_params(self) -> tuple[str, ...]:
        """Names of the keyword parameters the shim accepts."""
        signature = inspect.signature(self.run)
        return tuple(
            parameter.name
            for parameter in signature.parameters.values()
            if parameter.kind
            in (parameter.POSITIONAL_OR_KEYWORD, parameter.KEYWORD_ONLY)
        )

    def _accepts_anything(self) -> bool:
        signature = inspect.signature(self.run)
        return any(
            parameter.kind is parameter.VAR_KEYWORD
            for parameter in signature.parameters.values()
        )

    def invoke(
        self,
        overrides: Mapping[str, Any] | None = None,
        **harness: Any,
    ) -> str:
        """Run the experiment with harness keywords and user overrides.

        ``harness`` keywords (seed, duration_s, probes, jobs, cache,
        policy) are a standard set the runner always supplies; ones the
        shim does not declare are dropped.  ``overrides`` come from the
        user (``--set key=value``) and must all be declared — either as
        a shim parameter or as a dotted ``spec_params`` alias — or an
        :class:`ExperimentError` is raised listing every accepted key
        (shim parameters and dotted ``--set`` paths, sorted).
        """
        accepted = self.accepted_params()
        permissive = self._accepts_anything()
        call = {
            key: value
            for key, value in harness.items()
            if permissive or key in accepted
        }
        if overrides:
            translated = {
                self.spec_params.get(key, key): value
                for key, value in overrides.items()
            }
            unknown = sorted(
                key
                for key in overrides
                if not permissive
                and key not in accepted
                and key not in self.spec_params
            )
            if unknown:
                accepted_keys = sorted({*accepted, *self.spec_params})
                raise ExperimentError(
                    f"unknown parameter(s) {', '.join(unknown)} for "
                    f"experiment {self.name!r}; accepted: "
                    f"{', '.join(accepted_keys) or '(none)'}"
                )
            call.update(translated)
        return self.run(**call)


def _table2() -> str:
    return format_table2(run_table2())


def _figure2(
    duration_s: float = 3.0, seed: int = 1, jobs: int = 1, cache=None,
    policy=None,
) -> str:
    return format_figure2(
        run_figure2(
            duration_s=duration_s, seed=seed, jobs=jobs, cache=cache,
            policy=policy,
        )
    )


def _figure3(
    probes: int = 200, seed: int = 1, jobs: int = 1, cache=None,
    policy=None,
) -> str:
    return format_loss_curves(
        run_figure3(probes=probes, seed=seed, jobs=jobs, cache=cache, policy=policy),
        "Figure 3 - loss vs distance",
    )


def _figure4(
    probes: int = 200, seed: int = 1, jobs: int = 1, cache=None,
    policy=None,
) -> str:
    return format_loss_curves(
        run_figure4(probes=probes, seed=seed, jobs=jobs, cache=cache, policy=policy),
        "Figure 4 - 1 Mbps transmission range on two days",
    )


def _table3(
    probes: int = 200, seed: int = 1, jobs: int = 1, cache=None,
    policy=None,
) -> str:
    return format_table3(
        run_table3(probes=probes, seed=seed, jobs=jobs, cache=cache, policy=policy)
    )


def _figure7(
    duration_s: float = 10.0, seed: int = 1, jobs: int = 1, cache=None,
    policy=None,
) -> str:
    return format_four_node(
        run_figure7(
            duration_s=duration_s, seed=seed, jobs=jobs, cache=cache,
            policy=policy,
        ),
        "Figure 7 - four stations, 11 Mbps, asymmetric (25/80/25 m)",
    )


def _figure9(
    duration_s: float = 10.0, seed: int = 1, jobs: int = 1, cache=None,
    policy=None,
) -> str:
    return format_four_node(
        run_figure9(
            duration_s=duration_s, seed=seed, jobs=jobs, cache=cache,
            policy=policy,
        ),
        "Figure 9 - four stations, 2 Mbps, asymmetric (25/90/25 m)",
    )


def _figure11(
    duration_s: float = 10.0, seed: int = 1, jobs: int = 1, cache=None,
    policy=None,
) -> str:
    return format_four_node(
        run_figure11(
            duration_s=duration_s, seed=seed, jobs=jobs, cache=cache,
            policy=policy,
        ),
        "Figure 11 - four stations, 11 Mbps, symmetric (25/60/25 m)",
    )


def _figure12(
    duration_s: float = 10.0, seed: int = 1, jobs: int = 1, cache=None,
    policy=None,
) -> str:
    return format_four_node(
        run_figure12(
            duration_s=duration_s, seed=seed, jobs=jobs, cache=cache,
            policy=policy,
        ),
        "Figure 12 - four stations, 2 Mbps, symmetric (25/60/25 m)",
    )


def _arf(
    duration_s: float = 10.0, seed: int = 1, jobs: int = 1, cache=None,
    policy=None,
) -> str:
    return format_arf_sweep(
        run_arf_sweep(
            duration_s=min(duration_s, 4.0), seed=seed, jobs=jobs,
            cache=cache, policy=policy,
        )
    )


def _delay(
    duration_s: float = 10.0, seed: int = 1, jobs: int = 1, cache=None,
    policy=None,
) -> str:
    from repro.core.params import Rate

    return format_delay_sweep(
        run_delay_sweep(
            duration_s=min(duration_s, 5.0), seed=seed, jobs=jobs,
            cache=cache, policy=policy,
        ),
        Rate.MBPS_11,
    )


def _multihop(
    duration_s: float = 5.0, seed: int = 1, jobs: int = 1, cache=None,
    policy=None,
) -> str:
    return format_multihop_sweep(
        run_multihop_sweep(
            duration_s=min(duration_s, 5.0), seed=seed, jobs=jobs,
            cache=cache, policy=policy,
        )
    )


def _density(
    duration_s: float = 3.0, seed: int = 1, jobs: int = 1, cache=None,
    policy=None,
) -> str:
    return format_density_sweep(
        run_density_sweep(
            duration_s=min(duration_s, 3.0), seed=seed, jobs=jobs,
            cache=cache, policy=policy,
        )
    )


def _mac_surface(
    duration_s: float = 1.0, seed: int = 1, jobs: int = 1, cache=None,
    policy=None,
    cw_min: int | None = None,
    cw_max: int | None = None,
    retry: int | None = None,
    slot_us: float | None = None,
    sifs_us: float | None = None,
    queue: int | None = None,
) -> str:
    from repro.experiments.mac_surface import (
        format_mac_surface,
        run_mac_surface,
    )

    pins = {
        label: value
        for label, value in (
            ("cw_min", cw_min), ("cw_max", cw_max), ("retry", retry),
            ("slot_us", slot_us), ("sifs_us", sifs_us), ("queue", queue),
        )
        if value is not None
    }
    return format_mac_surface(
        run_mac_surface(
            duration_s=min(duration_s, 2.0), seed=seed, jobs=jobs,
            cache=cache, policy=policy, pins=pins or None,
        )
    )


#: Dotted ``--set`` aliases for the mac-surface knobs: the same paths
#: the spec document and the sweep axes use.
_MAC_SURFACE_SPEC_PARAMS: dict[str, str] = {
    "stack.mac.cw_min_slots": "cw_min",
    "stack.mac.cw_max_slots": "cw_max",
    "stack.mac.short_retry_limit": "retry",
    "stack.mac.slot_time_us": "slot_us",
    "stack.mac.sifs_us": "sifs_us",
    "stack.mac.queue_frames": "queue",
}


def _link_lifetime(
    seed: int = 1, jobs: int = 1, cache=None, policy=None
) -> str:
    return format_link_lifetimes(
        run_link_lifetimes(seed=seed, jobs=jobs, cache=cache, policy=policy)
    )


def _fault_blackout(
    duration_s: float = 10.0, seed: int = 1, cache=None, policy=None
) -> str:
    from repro.experiments.fault_resilience import (
        format_link_blackout,
        run_link_blackout,
    )

    # A 5 s outage needs clean channel either side of it.
    return format_link_blackout(
        run_link_blackout(
            duration_s=max(duration_s, 15.0), seed=seed, cache=cache,
            policy=policy,
        )
    )


def _fault_crash(
    duration_s: float = 10.0, seed: int = 1, cache=None, policy=None
) -> str:
    from repro.experiments.fault_resilience import (
        format_node_crash,
        run_node_crash,
    )

    return format_node_crash(
        run_node_crash(
            duration_s=max(duration_s, 15.0), seed=seed, cache=cache,
            policy=policy,
        )
    )


def _figure1() -> str:
    from repro.experiments.diagrams import format_figure1

    return format_figure1(512)


def _scenarios() -> str:
    from repro.channel.placement import (
        figure6_placement,
        figure8_placement,
        figure10_placement,
    )
    from repro.experiments.diagrams import format_scenario

    sections = [
        format_scenario(figure6_placement()),
        format_scenario(figure8_placement()),
        format_scenario(figure10_placement(), sessions=((0, 1), (3, 2))),
    ]
    return "\n\n".join(sections)


EXPERIMENTS: dict[str, Experiment] = {
    experiment.name: experiment
    for experiment in (
        Experiment("table2", "Max throughput model vs the paper's Table 2", _table2),
        Experiment("figure2", "Ideal vs measured TCP/UDP throughput", _figure2),
        Experiment("figure3", "Packet loss vs distance per rate", _figure3),
        Experiment("figure4", "1 Mbps range on two different days", _figure4),
        Experiment("table3", "Transmission range estimates", _table3),
        Experiment("figure7", "Four stations, 11 Mbps, asymmetric", _figure7),
        Experiment("figure9", "Four stations, 2 Mbps, asymmetric", _figure9),
        Experiment("figure11", "Four stations, 11 Mbps, symmetric", _figure11),
        Experiment("figure12", "Four stations, 2 Mbps, symmetric", _figure12),
        Experiment("figure1", "Encapsulation overhead diagram", _figure1),
        Experiment("scenarios", "Topology diagrams (Figures 5/6/8/10)", _scenarios),
        Experiment("arf", "Extension: ARF rate switching vs fixed rates", _arf),
        Experiment("delay", "Extension: one-way delay vs offered load", _delay),
        Experiment(
            "multihop",
            "Extension: chain throughput vs hop count (shortest-path routing)",
            _multihop,
        ),
        Experiment(
            "density",
            "Extension: per-node throughput vs neighbour density at N up to 250",
            _density,
        ),
        Experiment(
            "mac-surface",
            "Extension: MAC parameter-response surfaces vs the DCF model",
            _mac_surface,
            spec_params=_MAC_SURFACE_SPEC_PARAMS,
        ),
        Experiment(
            "link-lifetime",
            "Extension: mobile link lifetime, calibrated vs ns-2 ranges",
            _link_lifetime,
        ),
        Experiment(
            "fault-blackout",
            "Resilience: UDP through an injected 5 s link blackout",
            _fault_blackout,
        ),
        Experiment(
            "fault-crash",
            "Resilience: TCP recovery across a sender crash/reboot",
            _fault_crash,
        ),
    )
}


def get_experiment(name: str) -> Experiment:
    """Look up an experiment; raises with the list of valid names."""
    if name not in EXPERIMENTS:
        raise ExperimentError(
            f"unknown experiment {name!r}; valid: {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[name]
