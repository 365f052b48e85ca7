"""Figure 25 (Appendix E.1): multi-factor robustness sweep.

Classification accuracy as a function of Nimbus's pulse size, the bottleneck
link rate, and the fraction of the link Nimbus's fair share represents.
Larger pulses and faster links improve accuracy; a smaller Nimbus share also
helps because the inelastic cross traffic then has lower relative variance.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from .accuracy_scenarios import cross_traffic, run_case
from .common import ExperimentResult, run_cases


def run(pulse_sizes: Iterable[float] = (0.125, 0.25),
        link_rates_mbps: Iterable[float] = (96.0,),
        nimbus_shares: Iterable[float] = (0.25, 0.5),
        traffic_kind: str = "mix", duration: float = 40.0,
        **params) -> ExperimentResult:
    """Sweep pulse size x link rate x Nimbus share and report accuracy.

    ``nimbus_shares`` controls the share of the link *not* taken by the
    inelastic cross traffic: a share of 0.25 means inelastic traffic offers
    75 % of the link (minus the elastic flow for the mixed workload).
    """
    result = ExperimentResult(name="fig25_multifactor")
    keys, cases = [], []
    for link_rate in link_rates_mbps:
        for share in nimbus_shares:
            cross = cross_traffic(traffic_kind,
                                  inelastic_fraction=max(0.0, 1.0 - share))
            for pulse in pulse_sizes:
                keys.append((pulse, link_rate, share))
                cases.append(dict(cross, link_mbps=link_rate,
                                  pulse_fraction=pulse))
    scenarios = run_cases(run_case, cases, duration=duration, **params)
    accuracy: Dict[Tuple[float, float, float], float] = {
        key: scenario["extra"]["mode_accuracy"]
        for key, scenario in zip(keys, scenarios)}
    result.data["accuracy"] = accuracy
    result.data["mean_accuracy"] = (sum(accuracy.values()) / len(accuracy)
                                    if accuracy else 0.0)
    return result
