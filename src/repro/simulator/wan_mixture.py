"""The WAN cross-traffic flow-size mixture, described once.

Both tiers of the WAN workload draw flow sizes from the same synthetic
stand-in for the paper's CAIDA trace — a log-normal body of short flows and
a Pareto tail of elephants, clipped to ``[MIN_FLOW_BYTES, MAX_FLOW_BYTES]``
(see :mod:`repro.traffic.flowsize` for the rationale): the per-flow sampler
(:class:`~repro.traffic.flowsize.HeavyTailedFlowSizes`) and the fluid
aggregate (:class:`~repro.simulator.fluid.FluidClass`).  The mixture lives
in the simulator layer because ``simulator.*`` must not import the traffic
layer; each tier keeps its own random stream.
"""

from __future__ import annotations

import math

#: Share of flows drawn from the log-normal body; its median and log-sigma.
SHORT_FRACTION = 0.9
SHORT_MEDIAN_BYTES = 6.0e3
SHORT_SIGMA = 1.2
#: Shape (< 2: heavy tail) and scale of the Pareto tail.
PARETO_SHAPE = 1.2
PARETO_SCALE_BYTES = 3.0e4
#: Every sampled size is clipped to this range.
MIN_FLOW_BYTES = 100.0
MAX_FLOW_BYTES = 5.0e8


def mean_bytes() -> float:
    """Approximate analytic mean flow size of the mixture (bytes)."""
    lognormal_mean = SHORT_MEDIAN_BYTES * math.exp(SHORT_SIGMA ** 2 / 2.0)
    # The Pareto mean is truncated at the cap; correct roughly for it.
    pareto_mean = min(PARETO_SHAPE * PARETO_SCALE_BYTES
                      / (PARETO_SHAPE - 1.0), MAX_FLOW_BYTES)
    return (SHORT_FRACTION * lognormal_mean
            + (1.0 - SHORT_FRACTION) * pareto_mean)


def arrival_rate(offered_rate: float) -> float:
    """Poisson flow-arrival rate (flows/s) at which the mixture offers
    ``offered_rate`` bytes/s."""
    return offered_rate / mean_bytes()
