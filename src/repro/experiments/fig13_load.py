"""Figure 13: effect of cross-traffic load and pulse size.

The WAN workload offers 50 % or 90 % of the link; Nimbus runs with pulse
amplitudes of 0.125 and 0.25 of the link rate and is compared against Cubic
and Vegas.  At low load Nimbus's delay approaches Vegas while its
throughput approaches Cubic; at high load it behaves like Cubic; and the
larger pulse gives more reliable switching.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable

from .common import ExperimentResult, SchemeResult, run_cases
from .fig09_wan import run_case


def run(loads: Iterable[float] = (0.5, 0.9),
        pulse_sizes: Iterable[float] = (0.125, 0.25),
        baselines: Iterable[str] = ("cubic", "vegas"),
        link_mbps: float = 96.0, prop_rtt: float = 0.05,
        buffer_ms: float = 100.0, duration: float = 60.0,
        dt: float = 0.002, seed: int = 1) -> ExperimentResult:
    """Sweep load x pulse size for Nimbus, plus the fixed baselines.

    Each (load, scheme) point is an independent scenario, so the whole
    sweep is one batch: points run in parallel when workers are available
    and cached points (e.g. the Fig. 9 baselines at 50 % load) are reused
    across figures instead of being re-simulated.
    """
    result = ExperimentResult(
        name="fig13_load",
        parameters=dict(loads=list(loads), pulse_sizes=list(pulse_sizes),
                        link_mbps=link_mbps, duration=duration))
    points = []
    for load in loads:
        for scheme in baselines:
            points.append((f"{scheme}@load{int(load * 100)}", scheme,
                           dict(load=load)))
        for pulse in pulse_sizes:
            points.append((f"nimbus{pulse}@load{int(load * 100)}", "nimbus",
                           dict(load=load, pulse_fraction=pulse)))
    payloads = run_cases(
        run_case, [dict(scheme=s, **point) for _, s, point in points],
        link_mbps=link_mbps, prop_rtt=prop_rtt, buffer_ms=buffer_ms,
        duration=duration, dt=dt, seed=seed)
    for (label, _, point), payload in zip(points, payloads):
        extra = dict(payload["extra"])
        extra.update(point)
        result.schemes[label] = SchemeResult(
            scheme=label, summary=replace(payload["summary"], scheme=label),
            extra=extra)
    return result
