"""Scripted, time-varying cross traffic (the workload of Figs. 1, 8 and 17).

The paper's illustrative experiments vary the cross traffic over time: a
period with ``y`` long-running Cubic flows, a period of ``x`` Mbit/s of
Poisson traffic, mixes of the two, and so on.  :class:`ScriptedCrossTraffic`
takes a list of phases, instantiates the right flows at the right times,
stops them when their phase ends, and exposes the ground truth (is elastic
cross traffic present, and what is the main flow's fair share) that
experiments use to score classification accuracy and plot the fair-share
reference line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..cc.base import NullCC
from ..cc.cubic import Cubic
from ..simulator.endpoint import Flow
from ..simulator.topology import TopologyNetwork
from .poisson import PoissonSource

#: Label of every generated cross flow, scripted or WAN.
CROSS_FLOW = "cross"


@dataclass
class Phase:
    """One phase of the scripted workload.

    Attributes:
        duration: Length of the phase in seconds.
        inelastic_rate: Offered rate of Poisson (inelastic) traffic, bytes/s.
        elastic_flows: Number of long-running elastic (Cubic) cross flows.
    """

    duration: float
    inelastic_rate: float = 0.0
    elastic_flows: int = 0

    @property
    def has_elastic(self) -> bool:
        return self.elastic_flows > 0


@dataclass
class ScriptedCrossTraffic:
    """Drives a phase schedule on a network.

    Args:
        network: The network to add cross flows to.
        phases: The schedule, executed back to back starting at ``start``.
        prop_rtt: Propagation RTT of the cross flows.
        start: Time at which the first phase begins.
    """

    network: TopologyNetwork
    phases: List[Phase]
    prop_rtt: float = 0.05
    start: float = 0.0
    seed: int = 7
    _active_flows: List[Flow] = field(default_factory=list)
    _boundaries: List[float] = field(default_factory=list)

    def install(self) -> None:
        """Schedule all phase transitions on the network."""
        t = self.start
        self._boundaries = [t]
        for index, phase in enumerate(self.phases):
            self.network.schedule_call(
                t, lambda now, p=phase, i=index: self._begin_phase(p, i, now))
            t += phase.duration
            self._boundaries.append(t)
        self.network.schedule_call(t, lambda now: self._end_all(now))

    # ------------------------------------------------------------------ #
    # Phase management
    # ------------------------------------------------------------------ #
    def _begin_phase(self, phase: Phase, index: int, now: float) -> None:
        self._end_all(now)
        for i in range(phase.elastic_flows):
            flow = Flow(cc=Cubic(), prop_rtt=self.prop_rtt,
                        start_time=now, name=CROSS_FLOW)
            self.network.add_flow(flow)
            self._active_flows.append(flow)
        if phase.inelastic_rate > 0:
            source = PoissonSource(phase.inelastic_rate,
                                   seed=self.seed + index)
            flow = Flow(cc=NullCC(), prop_rtt=self.prop_rtt, source=source,
                        start_time=now, name=CROSS_FLOW)
            self.network.add_flow(flow)
            self._active_flows.append(flow)

    def _end_all(self, now: float) -> None:
        for flow in self._active_flows:
            flow.stop(now)
        self._active_flows.clear()

    # ------------------------------------------------------------------ #
    # Ground truth
    # ------------------------------------------------------------------ #
    def phase_at(self, t: float) -> Optional[Phase]:
        """The phase in effect at absolute time ``t`` (None outside schedule)."""
        if not self._boundaries:
            # install() not called yet; compute boundaries on the fly.
            boundaries = [self.start]
            for phase in self.phases:
                boundaries.append(boundaries[-1] + phase.duration)
        else:
            boundaries = self._boundaries
        for i, phase in enumerate(self.phases):
            if boundaries[i] <= t < boundaries[i + 1]:
                return phase
        return None

    def elastic_present(self, t: float) -> bool:
        """Ground truth: is any elastic cross flow active at time ``t``?"""
        phase = self.phase_at(t)
        return phase.has_elastic if phase is not None else False

    def fair_share(self, t: float, link_rate: float,
                   main_flows: int = 1) -> float:
        """Fair share (bytes/s) of the main flow(s) at time ``t``.

        Inelastic traffic is assumed to take its offered rate off the top;
        the remainder is split evenly among the main flow(s) and any elastic
        cross flows, as in the fair-share reference line of Fig. 8.
        """
        phase = self.phase_at(t)
        if phase is None:
            return link_rate / max(main_flows, 1) * main_flows
        available = max(link_rate - phase.inelastic_rate, 0.0)
        sharers = main_flows + phase.elastic_flows
        if sharers <= 0:
            return available
        return available * main_flows / sharers
