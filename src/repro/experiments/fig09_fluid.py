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
        **params) -> ExperimentResult:
    """Run the fluid-aggregate WAN workload for each scheme."""
    result = ExperimentResult(name="fig09_fluid")
    run_cases(run_case, [dict(scheme=scheme) for scheme in schemes], result,
              fluid=1, **params)
    return result
