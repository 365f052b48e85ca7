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
        **params) -> ExperimentResult:
    """Sweep load x pulse size for Nimbus, plus the fixed baselines.

    Each (load, scheme) point is an independent scenario, so the whole
    sweep is one batch: points run in parallel when workers are available,
    and, called directly, a cached point is reused across figures instead
    of being re-simulated (run as a spec — ``runner``, a campaign cell —
    the batch is part of that spec and skips the cache).  A case spec
    carries only the parameters its caller passed, so Fig. 9's baselines
    at 50 % load are reused only when both front-ends get the same
    explicit parameters (``duration``, ``seed``, ...); a parameter left
    to its default in one and spelled out in the other makes two specs.
    """
    result = ExperimentResult(name="fig13_load")
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
        **params)
    for (label, _, point), payload in zip(points, payloads):
        extra = dict(payload["extra"])
        extra.update(point)
        result.schemes[label] = SchemeResult(
            scheme=label, summary=replace(payload["summary"], scheme=label),
            extra=extra)
    return result
