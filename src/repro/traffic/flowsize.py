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
from typing import List

from ..simulator.units import MSS_BYTES

#: Flows at most this many packets never leave the initial congestion window
#: (10 segments in Linux 4.10) and are therefore inelastic ground truth
#: in the paper's Fig. 12 analysis.
ELASTIC_THRESHOLD_BYTES = 10 * MSS_BYTES

#: Median and log-sigma of the log-normal body of short flows, scale of the
#: Pareto tail, and the cap on any one flow.  ``repro.simulator.fluid``
#: mirrors these (it must not import this layer); a test keeps them equal.
SHORT_MEDIAN_BYTES = 6.0e3
SHORT_SIGMA = 1.2
PARETO_SCALE_BYTES = 3.0e4
MAX_FLOW_BYTES = 5.0e8


@dataclass
class FlowSizeSample:
    """A sampled flow: its size and whether it counts as elastic."""

    size_bytes: float
    elastic: bool


class HeavyTailedFlowSizes:
    """Synthetic CAIDA-like flow-size distribution.

    A fraction ``short_fraction`` of flows are short, drawn from a
    log-normal distribution centred on a few kilobytes; the remainder are
    drawn from a Pareto distribution whose shape < 2 gives the heavy tail.
    """

    #: Every sampled size lies in ``[100, max_bytes]``.
    max_bytes = MAX_FLOW_BYTES

    def __init__(self, seed: int = 0, short_fraction: float = 0.9,
                 pareto_shape: float = 1.2) -> None:
        if not 0.0 < short_fraction < 1.0:
            raise ValueError("short_fraction must be in (0, 1)")
        if pareto_shape <= 1.0:
            raise ValueError("pareto_shape must exceed 1 for a finite mean")
        self.short_fraction = short_fraction
        self.pareto_shape = pareto_shape
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def sample(self) -> FlowSizeSample:
        """Draw one flow size."""
        if self._rng.random() < self.short_fraction:
            size = self._rng.lognormvariate(math.log(SHORT_MEDIAN_BYTES),
                                            SHORT_SIGMA)
        else:
            u = self._rng.random()
            size = PARETO_SCALE_BYTES / (u ** (1.0 / self.pareto_shape))
        size = min(max(size, 100.0), MAX_FLOW_BYTES)
        return FlowSizeSample(size_bytes=size,
                              elastic=size > ELASTIC_THRESHOLD_BYTES)

    def sample_many(self, n: int) -> List[FlowSizeSample]:
        """Draw ``n`` flow sizes."""
        return [self.sample() for _ in range(n)]

    # ------------------------------------------------------------------ #
    # Moments (analytical, used to size the arrival rate for a target load)
    # ------------------------------------------------------------------ #
    def mean_bytes(self) -> float:
        """Approximate mean flow size of the mixture (bytes)."""
        lognormal_mean = SHORT_MEDIAN_BYTES * math.exp(SHORT_SIGMA ** 2 / 2.0)
        pareto_mean = (self.pareto_shape * PARETO_SCALE_BYTES
                       / (self.pareto_shape - 1.0))
        # The Pareto mean is truncated at the cap; correct roughly for it.
        pareto_mean = min(pareto_mean, MAX_FLOW_BYTES)
        return (self.short_fraction * lognormal_mean
                + (1.0 - self.short_fraction) * pareto_mean)

    def arrival_rate_for_load(self, link_rate: float, load: float) -> float:
        """Poisson flow-arrival rate (flows/s) offering ``load * link_rate``."""
        if not 0.0 < load:
            raise ValueError("load must be positive")
        return load * link_rate / self.mean_bytes()
