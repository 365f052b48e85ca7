"""The five workloads of the end-to-end benchmark.

Each workload is a batch a user of this repository really runs — scenario
specs through ``BatchExecutor``, or a manifest through ``CampaignRunner`` —
chosen so that a different layer owns the time in each, and so that every
planned optimisation has one workload that exercises it and one that must
not move (see README.md for the layer -> metric -> workload table).

``--seed`` generates the inputs (driver ``seed=`` values, campaign
``seeds``); the program under test sees only the resulting specs.

Sizes: the simulated durations the issue recommended (5-9 s of host time
per cold pass), all scaled by the one factor ``_SIZE``, which makes a cold
pass ~2-3 s on the 2-core dev box.  The host's timing noise comes in
spells of +10-50 % that last from a second to minutes, so many short
passes with the minimum taken find the undisturbed cost more often than
three long ones (measured: README.md, "Host noise"), and the contract's
total-time cap leaves ~25 s per run.  ``scale`` multiplies every simulated
duration on top of that; only the self-check uses a value other than 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List

_EXPERIMENTS = "repro.experiments"
_SIZE = 0.45


def _spec(label: str, target: str, **params: Any):
    from repro.runtime import ScenarioSpec

    return ScenarioSpec.make(f"{_EXPERIMENTS}.{target}", label=label,
                             **params)


def _wan_churn(seed: int, scale: float) -> List[Any]:
    return [_spec("wan[nimbus]", "fig09_wan:run_case", scheme="nimbus",
                  duration=40.0 * _SIZE * scale, dt=0.002, seed=seed)]


def _detector_mix(seed: int, scale: float) -> List[Any]:
    return [_spec(f"classify[{traffic}]", "table1_classification:classify",
                  traffic=traffic, duration=45.0 * _SIZE * scale, seed=seed)
            for traffic in ("cubic", "constant-stream")]


def _multihop_faults(seed: int, scale: float) -> List[Any]:
    return [_spec(driver, f"{driver}:run_case", scheme="nimbus",
                  duration=25.0 * _SIZE * scale, seed=seed)
            for driver in ("parking_lot", "reroute", "link_flap")]


def _fluid_crowd(seed: int, scale: float) -> List[Any]:
    return [_spec("wan[cubic+fluid]", "fig09_wan:run_case", scheme="cubic",
                  fluid=1, fluid_arrivals=6667, duration=240.0 * _SIZE * scale,
                  seed=seed)]


def _campaign_grid(seed: int, scale: float) -> dict:
    """A 36-cell manifest: 3 drivers x (2 x 2 axes) x 3 seeds."""
    duration = 6.0 * _SIZE * scale
    shared = {"duration": duration, "dt": 0.004, "schemes": ["nimbus"]}
    return {
        "campaign": {"name": "grid", "seeds": [seed, seed + 1, seed + 2]},
        "experiment": [
            {"id": "flap", "driver": "link_flap",
             "params": {**shared, "phase_duration": duration / 2.0},
             "axes": {"period": [2, 4], "depth": [0.5, 1.0]}},
            {"id": "wan", "driver": "fig09", "params": shared,
             "axes": {"link_mbps": [24, 48], "load": [0.2, 0.5]}},
            {"id": "lot", "driver": "parking_lot", "params": shared,
             "axes": {"hops": [2, 3], "cross_flows": [1, 2]}},
        ],
    }


@dataclass(frozen=True)
class Workload:
    """One named set of inputs.

    ``build(seed, scale)`` returns a list of ``ScenarioSpec`` (run by
    ``BatchExecutor(workers=workers)``) or, for ``campaign``, a manifest
    mapping (run by ``CampaignRunner(workers=workers)``).
    """

    name: str
    why: str
    workers: int
    build: Callable[[int, float], Any]
    campaign: bool = False


WORKLOADS = (
    Workload(
        "wan_churn",
        "~3k short heavy-tailed Cubic flows churn through one link: the only "
        "workload where traffic generation and endpoint/engine roster churn "
        "own the time",
        1, _wan_churn),
    Workload(
        "detector_mix",
        "two long-lived flows (elastic, then inelastic cross traffic): "
        "per-flow machinery idles, so core estimator/nimbus/detector "
        "dominate and traffic does nothing",
        1, _detector_mix),
    Workload(
        "multihop_faults",
        "parking_lot, reroute and link_flap: multi-link paths, per-hop "
        "service, flaps and reroutes, where engine and link self time are "
        "largest and single-link workloads must not move",
        1, _multihop_faults),
    Workload(
        "fluid_crowd",
        "a Cubic flow against a 100k-flow fluid class: fluid link sharing "
        "and the engine own the time and core does zero work, the no-change "
        "control for every core optimisation",
        1, _fluid_crowd),
    Workload(
        "campaign_grid",
        "36 small cells through the hardened executor on 2 workers with "
        "journal and results stream: where runtime overhead is largest and "
        "the cache is written as well as read",
        2, _campaign_grid, campaign=True),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
