"""Figure 15 (and the mixed-RTT paragraph of §8.2): sensitivity to the RTT of
the cross traffic.

Nimbus runs against fully inelastic (Poisson), fully elastic (backlogged
NewReno), and mixed cross traffic whose base RTT ranges from 0.2x to 4x
Nimbus's RTT.  The paper reports > 98 % accuracy for the pure cases and
>= 85 % for the mix across the whole range; heterogeneous per-flow RTTs
(Fig. 15's companion experiment) do not hurt either.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from .accuracy_scenarios import cross_traffic, run_case
from .common import ExperimentResult, run_cases

DEFAULT_CATEGORIES = ("elastic", "mix", "poisson")


def run(rtt_ratios: Iterable[float] = (0.5, 1.0, 2.0),
        categories: Iterable[str] = DEFAULT_CATEGORIES,
        mixed_rtts: Sequence[float] | None = None,
        duration: float = 50.0, **params) -> ExperimentResult:
    """Sweep cross-traffic RTT ratio for each traffic category.

    The (category, ratio) grid is executed as one scenario batch (two
    backlogged flows make the elastic category); ``mixed_rtts`` optionally
    appends the multiple-elastic-flows-with-different-RTTs scenario: a list
    of RTTs (seconds), one backlogged flow each.
    """
    rtt_ratios = list(rtt_ratios)
    categories = list(categories)
    result = ExperimentResult(name="fig15_rtt_sweep")
    grid = [(category, ratio)
            for category in categories for ratio in rtt_ratios]
    cases = [dict(cross_traffic(category, elastic_flows=2), rtt_ratio=ratio)
             for category, ratio in grid]
    if mixed_rtts:
        cases.append(dict(
            cross_traffic("elastic", elastic_flows=len(mixed_rtts)),
            elastic_rtts=tuple(mixed_rtts)))
    payloads = run_cases(run_case, cases, duration=duration, **params)

    accuracy: Dict[str, Dict[float, float]] = {c: {} for c in categories}
    scenarios: Dict[str, Dict[float, dict]] = {c: {} for c in categories}
    for (category, ratio), scenario in zip(grid, payloads):
        accuracy[category][ratio] = scenario["extra"]["mode_accuracy"]
        scenarios[category][ratio] = scenario
    result.data = {"accuracy": accuracy, "scenarios": scenarios}
    if mixed_rtts:
        result.data["mixed_rtt_accuracy"] = \
            payloads[-1]["extra"]["mode_accuracy"]
    return result
