"""Figure 14: classification accuracy of Nimbus vs. Copa.

Left panel: purely inelastic cross traffic (CBR and Poisson) occupying an
increasing share of the link.  Nimbus stays accurate at all shares while
Copa's detector fails once the cross traffic exceeds roughly 80 % of the
link (the queue can no longer drain within 5 RTTs).

Right panel: a single backlogged NewReno cross flow whose RTT is 1x to 4x
the mode-switching flow's RTT.  Copa's accuracy degrades as the RTT ratio
grows (the slow-ramping flow lets the queue drain, fooling the detector);
Nimbus's accuracy stays high.
"""

from __future__ import annotations

from typing import Dict, Iterable

from .accuracy_scenarios import run_case
from .common import ExperimentResult, run_cases

DEFAULT_SHARES = (0.3, 0.5, 0.7, 0.85)
DEFAULT_RTT_RATIOS = (1.0, 2.0, 4.0)


def run(schemes: Iterable[str] = ("nimbus", "copa"),
        inelastic_shares: Iterable[float] = DEFAULT_SHARES,
        inelastic_kinds: Iterable[str] = ("poisson", "cbr"),
        rtt_ratios: Iterable[float] = DEFAULT_RTT_RATIOS,
        duration: float = 50.0, **params) -> ExperimentResult:
    """Run both sweeps for both schemes."""
    result = ExperimentResult(name="fig14_accuracy_vs_copa")
    inelastic_accuracy: Dict[str, Dict] = {s: {} for s in schemes}
    rtt_accuracy: Dict[str, Dict] = {s: {} for s in schemes}

    slots, cases = [], []
    for scheme in schemes:
        for kind in inelastic_kinds:
            for share in inelastic_shares:
                slots.append((inelastic_accuracy[scheme], (kind, share)))
                cases.append(dict(scheme=scheme, kind=kind,
                                  rate_fraction=share, elastic_flows=0))
        for ratio in rtt_ratios:
            slots.append((rtt_accuracy[scheme], ratio))
            cases.append(dict(scheme=scheme, kind="elastic",
                              rate_fraction=0.0, rtt_ratio=ratio))
    scenarios = run_cases(run_case, cases, duration=duration, **params)
    for (table, key), scenario in zip(slots, scenarios):
        table[key] = scenario

    result.data = {
        "inelastic": {
            scheme: {key: scen["extra"]["mode_accuracy"]
                     for key, scen in runs.items()}
            for scheme, runs in inelastic_accuracy.items()
        },
        "rtt": {
            scheme: {ratio: scen["extra"]["mode_accuracy"]
                     for ratio, scen in runs.items()}
            for scheme, runs in rtt_accuracy.items()
        },
        "inelastic_scenarios": inelastic_accuracy,
        "rtt_scenarios": rtt_accuracy,
    }
    return result
