"""WAN-like cross traffic: Poisson flow arrivals with heavy-tailed sizes.

This reproduces the paper's trace-driven workload (§8.1): Cubic cross flows
whose sizes are drawn from a heavy-tailed distribution and whose arrivals
form a Poisson process offering a fixed average load.  Because the size
distribution is heavy-tailed, the resulting traffic alternates naturally
between periods dominated by short (inelastic) flows and periods containing
one or more large elastic flows — exactly the regime in which elasticity
detection pays off.

The generator also maintains the ground truth the paper uses in Fig. 12:
at any time, the fraction of delivered cross-traffic bytes that belong to
"elastic" flows (flows bigger than the initial congestion window).

The transport (Cubic), the size mixture (``HeavyTailedFlowSizes`` on the
workload's seed) and the flow label are fixed: no driver varies them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..cc.cubic import Cubic
from ..simulator.endpoint import Flow
from ..simulator.topology import TopologyNetwork
from ..simulator.source import FiniteSource
from .flowsize import HeavyTailedFlowSizes
from .scripted import CROSS_FLOW


@dataclass
class CrossFlowRecord:
    """Bookkeeping for one generated cross flow."""

    flow: Flow
    size_bytes: float
    elastic: bool
    start_time: float

    @property
    def fct(self) -> Optional[float]:
        return self.flow.fct


@dataclass
class WanWorkloadConfig:
    """Parameters of the WAN cross-traffic workload."""

    link_rate: float
    load: float = 0.5
    prop_rtt: float = 0.05
    seed: int = 1
    #: Cap on concurrently active generated flows, to bound simulation cost.
    max_concurrent: int = 60


class WanTrafficGenerator:
    """Drives Poisson arrivals of finite Cubic flows on a network."""

    def __init__(self, network: TopologyNetwork,
                 config: WanWorkloadConfig) -> None:
        self.network = network
        self.config = config
        self.flow_sizes = HeavyTailedFlowSizes(seed=config.seed)
        self.records: List[CrossFlowRecord] = []
        #: Generated flows that have not finished.  A finished flow never
        #: runs again, so an arrival prunes and counts this roster (at most
        #: ``max_concurrent`` plus the flows not yet started) instead of
        #: rescanning every record ever made.
        self._live: List[Flow] = []
        self._rng = random.Random(config.seed)
        self._arrival_rate = self.flow_sizes.arrival_rate_for_load(
            config.link_rate, config.load)
        self._stopped = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self, at: float = 0.0) -> None:
        """Schedule the first arrival."""
        self.network.schedule_call(at + self._next_gap(), self._on_arrival)

    def stop(self) -> None:
        """Stop creating new flows (existing ones run to completion)."""
        self._stopped = True

    # ------------------------------------------------------------------ #
    # Arrival handling
    # ------------------------------------------------------------------ #
    def _on_arrival(self, now: float) -> None:
        if self._stopped:
            return
        live = self._live = [flow for flow in self._live
                             if not flow._finished]
        active = sum(1 for flow in live if flow._started)
        if active < self.config.max_concurrent:
            sample = self.flow_sizes.sample()
            flow = Flow(cc=Cubic(), prop_rtt=self.config.prop_rtt,
                        source=FiniteSource(sample.size_bytes),
                        start_time=now, name=CROSS_FLOW)
            self.network.add_flow(flow)
            live.append(flow)
            self.records.append(CrossFlowRecord(
                flow=flow, size_bytes=sample.size_bytes,
                elastic=sample.elastic, start_time=now))
        self.network.schedule_call(now + self._next_gap(), self._on_arrival)

    def _next_gap(self) -> float:
        return self._rng.expovariate(self._arrival_rate)

    # ------------------------------------------------------------------ #
    # Ground truth and statistics
    # ------------------------------------------------------------------ #
    def elastic_byte_fraction(self, start: float, end: float) -> float:
        """Fraction of generated bytes delivered in [start, end] that belong
        to elastic flows (the paper's ground truth for Fig. 12)."""
        elastic = 0.0
        total = 0.0
        for record in self.records:
            flow = record.flow
            f_start = record.start_time
            f_end = flow.stats.end_time if flow.stats.end_time is not None else end
            overlap = max(0.0, min(end, f_end) - max(start, f_start))
            duration = max(f_end - f_start, 1e-9)
            bytes_in_window = flow.stats.bytes_delivered * overlap / duration
            total += bytes_in_window
            if record.elastic:
                elastic += bytes_in_window
        if total <= 0:
            return 0.0
        return elastic / total

    def elastic_present(self, start: float, end: float,
                        byte_fraction_threshold: float = 0.3) -> bool:
        """Whether elastic flows carry a significant share of bytes in the window."""
        return self.elastic_byte_fraction(start, end) >= byte_fraction_threshold

    def completed_records(self) -> List[CrossFlowRecord]:
        """Records of flows that have finished (for FCT analysis)."""
        return [r for r in self.records if r.flow.fct is not None]
