"""Flow-size distributions for the WAN cross-traffic workload.

The paper draws cross-flow sizes from an empirical distribution derived from
a CAIDA backbone packet trace (January 2016) — a heavy-tailed mix in which
most flows are short (inelastic: they finish within their initial window)
but most *bytes* belong to a few large flows (elastic: long-running,
ACK-clocked).  The trace itself is not redistributable, so this module
provides a synthetic distribution with the same qualitative structure: a
log-normal body for the mass of short flows and a Pareto tail for the
elephants, with parameters chosen so that roughly half of the bytes come
from flows larger than 1 MB.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ..simulator import wan_mixture
from ..simulator.units import MSS_BYTES

#: Flows at most this many packets never leave the initial congestion window
#: (10 segments in Linux 4.10) and are therefore inelastic ground truth
#: in the paper's Fig. 12 analysis.
ELASTIC_THRESHOLD_BYTES = 10 * MSS_BYTES


@dataclass
class FlowSizeSample:
    """A sampled flow: its size and whether it counts as elastic."""

    size_bytes: float
    elastic: bool


class HeavyTailedFlowSizes:
    """Synthetic CAIDA-like flow-size distribution.

    A fraction ``wan_mixture.SHORT_FRACTION`` of flows are short, drawn from a
    log-normal distribution centred on a few kilobytes; the remainder are
    drawn from a Pareto distribution whose shape < 2 gives the heavy tail.
    The constants are :mod:`repro.simulator.wan_mixture`'s, which the fluid
    tier samples too.
    """

    #: Every sampled size lies in ``[100, max_bytes]``.
    max_bytes = wan_mixture.MAX_FLOW_BYTES

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def sample(self) -> FlowSizeSample:
        """Draw one flow size."""
        if self._rng.random() < wan_mixture.SHORT_FRACTION:
            size = self._rng.lognormvariate(
                math.log(wan_mixture.SHORT_MEDIAN_BYTES),
                wan_mixture.SHORT_SIGMA)
        else:
            u = self._rng.random()
            size = wan_mixture.PARETO_SCALE_BYTES \
                / (u ** (1.0 / wan_mixture.PARETO_SHAPE))
        size = min(max(size, wan_mixture.MIN_FLOW_BYTES),
                   wan_mixture.MAX_FLOW_BYTES)
        return FlowSizeSample(size_bytes=size,
                              elastic=size > ELASTIC_THRESHOLD_BYTES)

    # ------------------------------------------------------------------ #
    # Moments (analytical, used to size the arrival rate for a target load)
    # ------------------------------------------------------------------ #
    def arrival_rate_for_load(self, link_rate: float, load: float) -> float:
        """Poisson flow-arrival rate (flows/s) offering ``load * link_rate``."""
        if not 0.0 < load:
            raise ValueError("load must be positive")
        return wan_mixture.arrival_rate(load * link_rate)
