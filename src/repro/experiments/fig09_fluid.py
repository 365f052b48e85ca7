"""Figure 9 variant: WAN cross traffic as one fluid aggregate.

Same bottleneck, main flow, and target load as :mod:`fig09_wan`, but the
Poisson/heavy-tailed cross-traffic crowd is a single elastic
:class:`~repro.simulator.fluid.FluidClass` instead of per-flow objects.
The flow-arrival rate becomes a free parameter (``fluid_arrivals``):
sampled sizes are rescaled so the offered load stays fixed while the run
stands for anything from the paper's ~2.5 k flows to 10^5+ flows at
near-constant engine cost.  Monitored-flow metrics agree with the
per-flow path within the tolerance documented in README's "Scaling
cross-traffic" section.
"""

from __future__ import annotations

from typing import Iterable

from .common import ExperimentResult, run_cases
from .fig09_wan import run_case


def run(schemes: Iterable[str] = ("nimbus", "cubic", "vegas"),
        link_mbps: float = 96.0, prop_rtt: float = 0.05,
        buffer_ms: float = 100.0, load: float = 0.5, duration: float = 60.0,
        dt: float = 0.002, seed: int = 1,
        fluid_arrivals: float = 0.0) -> ExperimentResult:
    """Run the fluid-aggregate WAN workload for each scheme."""
    schemes = list(schemes)
    result = ExperimentResult(
        name="fig09_fluid",
        parameters=dict(schemes=schemes, link_mbps=link_mbps,
                        load=load, duration=duration,
                        fluid_arrivals=fluid_arrivals))
    run_cases(run_case, [dict(scheme=scheme) for scheme in schemes], result,
              link_mbps=link_mbps, prop_rtt=prop_rtt, buffer_ms=buffer_ms,
              load=load, duration=duration, dt=dt, seed=seed, fluid=1,
              fluid_arrivals=fluid_arrivals)
    return result
