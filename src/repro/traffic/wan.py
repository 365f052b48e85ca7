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

import numpy as np

from ..cc.cubic import Cubic
from ..simulator.endpoint import Flow
from ..simulator.topology import TopologyNetwork
from ..simulator.source import FiniteSource
from .flowsize import HeavyTailedFlowSizes
from .scripted import CROSS_FLOW


@dataclass(slots=True)
class CrossFlowRecord:
    """Bookkeeping for one generated cross flow (slotted: the generator
    keeps one per flow it ever made)."""

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

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self, at: float = 0.0) -> None:
        """Schedule the first arrival."""
        self.network.schedule_call(at + self._next_gap(), self._on_arrival)

    # ------------------------------------------------------------------ #
    # Arrival handling
    # ------------------------------------------------------------------ #
    def _on_arrival(self, now: float) -> None:
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
    def elastic_byte_fraction(self, start, end) -> np.ndarray:
        """Fraction of generated bytes delivered in [start, end] that belong
        to elastic flows (the paper's ground truth for Fig. 12).  ``start``
        and ``end`` broadcast, one window per element: the per-record arrays
        are built once per call, so ask for a run's windows in one call."""
        stats = [r.flow.stats for r in self.records]
        begun = np.array([r.start_time for r in self.records], dtype=float)
        # ``end_time`` is None while a flow is still running: nan.
        ended = np.array([s.end_time for s in stats], dtype=float)
        delivered = np.array([s.bytes_delivered for s in stats], dtype=float)
        elastic = np.array([r.elastic for r in self.records], dtype=bool)
        windows = np.broadcast(start, end)
        fractions = []
        for w_start, w_end in windows:
            f_end = np.where(np.isnan(ended), w_end, ended)
            overlap = np.maximum(
                0.0, np.minimum(w_end, f_end) - np.maximum(w_start, begun))
            in_window = delivered * overlap / np.maximum(f_end - begun, 1e-9)
            total = in_window.sum()
            fractions.append(in_window[elastic].sum() / total
                             if total > 0 else 0.0)
        return np.array(fractions, dtype=float).reshape(windows.shape)

    def completed_records(self) -> List[CrossFlowRecord]:
        """Records of flows that have finished (for FCT analysis)."""
        return [r for r in self.records if r.flow.fct is not None]
