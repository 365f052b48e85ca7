"""Appendix E.2: robustness to buffer size, propagation RTT, and AQM.

Classification accuracy with drop-tail buffers from 0.25 to 4 BDP, several
propagation delays, and PIE at two target delays.  The paper's caveats also
appear here: with very shallow buffers (or an aggressive PIE target) losses
corrupt the cross-traffic estimator and accuracy degrades, although Nimbus
still achieves its fair share and low (buffer-bounded) delays.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from .accuracy_scenarios import cross_traffic, run_case
from .common import ExperimentResult, run_cases


def run(buffer_bdp_multipliers: Iterable[float] = (1.0, 2.0),
        prop_rtts: Iterable[float] = (0.05,),
        categories: Iterable[str] = ("elastic", "poisson", "mix"),
        pie_targets_bdp: Optional[Iterable[float]] = None,
        duration: float = 40.0, **params) -> ExperimentResult:
    """Sweep buffer depth and RTT (and optionally PIE) for each traffic mix."""
    result = ExperimentResult(name="appE_buffer_aqm")
    keys, cases = [], []
    for category in categories:
        cross = cross_traffic(category)
        for rtt in prop_rtts:
            for multiplier in buffer_bdp_multipliers:
                keys.append((category, rtt, multiplier, "droptail"))
                cases.append(dict(cross, prop_rtt=rtt,
                                  buffer_ms=rtt * 1e3 * multiplier))
            for target in (pie_targets_bdp or ()):
                keys.append((category, rtt, target, "pie"))
                cases.append(dict(cross, prop_rtt=rtt,
                                  buffer_ms=rtt * 1e3 * 4,
                                  aqm_target_ms=rtt * 1e3 * target))
    scenarios = run_cases(run_case, cases, duration=duration, **params)
    accuracy: Dict[Tuple, float] = {
        key: scenario["extra"]["mode_accuracy"]
        for key, scenario in zip(keys, scenarios)}

    result.data["accuracy"] = accuracy
    result.data["mean_accuracy"] = (sum(accuracy.values()) / len(accuracy)
                                    if accuracy else 0.0)
    return result
