"""Shared infrastructure for the per-figure experiment drivers.

Every experiment in the paper is some combination of: a bottleneck link, a
"main" bulk flow running one of the schemes under study, and cross traffic.
This module provides the scheme registry (string name -> congestion-control
instance), the standard network construction, and result containers, so the
individual ``figXX_*`` modules stay small and declarative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..analysis.metrics import ThroughputDelaySummary, summarize_flow
from ..runtime.build import (
    FluidClassSpec,
    LinkSpec,
    RouteSpec,
    attach_fluid_classes,
    make_multihop_network,
    make_network,
    make_scheme,
    make_topology,
)
from ..simulator import Flow, TopologyNetwork, mbps_to_bytes_per_sec

#: Name of the main (measured) flow in every experiment.
MAIN_FLOW = "main"
#: Name given to cross-traffic flows.
CROSS_FLOW = "cross"

__all__ = [
    "CROSS_FLOW",
    "ExperimentResult",
    "FluidClassSpec",
    "LinkSpec",
    "MAIN_FLOW",
    "RouteSpec",
    "SchemeResult",
    "add_main_flow",
    "attach_fluid_classes",
    "make_multihop_network",
    "make_network",
    "make_scheme",
    "make_topology",
    "queue_delay_stats",
]


def add_main_flow(network: TopologyNetwork, scheme: str, link_mbps: float,
                  prop_rtt: float = 0.05, name: str = MAIN_FLOW,
                  **overrides) -> Flow:
    """Add the measured bulk-transfer flow running ``scheme``."""
    mu = mbps_to_bytes_per_sec(link_mbps)
    cc = make_scheme(scheme, mu, **overrides)
    flow = Flow(cc=cc, prop_rtt=prop_rtt, name=name)
    network.add_flow(flow)
    return flow


@dataclass
class SchemeResult:
    """Per-scheme outcome of one experiment run."""

    scheme: str
    summary: ThroughputDelaySummary
    extra: dict = field(default_factory=dict)


@dataclass
class ExperimentResult:
    """Container returned by every experiment driver's ``run`` function."""

    name: str
    parameters: dict
    schemes: Dict[str, SchemeResult] = field(default_factory=dict)
    data: dict = field(default_factory=dict)

    def add_scheme(self, scheme: str, recorder, flow_name: str = MAIN_FLOW,
                   start: float = 0.0, end: Optional[float] = None,
                   **extra) -> SchemeResult:
        """Summarise a recorder's main flow under the given scheme label."""
        summary = summarize_flow(recorder, flow_name, scheme=scheme,
                                 start=start, end=end)
        result = SchemeResult(scheme=scheme, summary=summary, extra=extra)
        self.schemes[scheme] = result
        return result

    def table(self) -> str:
        """Human-readable summary table (used by the examples and EXPERIMENTS.md)."""
        lines = [f"== {self.name} ==",
                 f"{'scheme':<18}{'tput (Mbit/s)':>15}{'mean delay (ms)':>18}"
                 f"{'p95 delay (ms)':>16}"]
        for scheme, result in self.schemes.items():
            s = result.summary
            lines.append(f"{scheme:<18}{s.mean_throughput_mbps:>15.1f}"
                         f"{s.mean_delay_ms:>18.1f}{s.p95_delay_ms:>16.1f}")
        return "\n".join(lines)


def queue_delay_stats(recorder, start: float = 0.0) -> Dict[str, float]:
    """Mean/median/p95 of the bottleneck queueing delay after ``start``."""
    times, delays = recorder.link_queue_delay_series()
    mask = times >= start
    selected = delays[mask] if mask.any() else delays
    if selected.size == 0:
        return {"mean": 0.0, "median": 0.0, "p95": 0.0}
    return {
        "mean": float(np.mean(selected)),
        "median": float(np.median(selected)),
        "p95": float(np.percentile(selected, 95)),
    }
