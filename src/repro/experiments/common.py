"""Shared infrastructure for the per-figure experiment drivers.

Every experiment in the paper is some combination of: a bottleneck link, a
"main" bulk flow running one of the schemes under study, and cross traffic.
This module provides the scheme registry (string name -> congestion-control
instance), the standard network construction, and result containers, so the
individual ``figXX_*`` modules stay small and declarative.

The one recipe every driver follows lives here too.  A *case* (a
module-level ``run_case(**scalars)``) builds, runs and measures one network
and returns the payload — the ``{"scheme", "summary", "extra", "data"}``
dict, data only; a *front-end* (``run``) lists its cases, hands them to
:func:`run_cases` and reduces the payloads.  The case's signature holds
every default: the front-end names its sweep axes (and a case parameter
only when its reduction reads it or it defaults it differently) and
passes everything else through ``**params``, so a spec carries only what
its caller passed.  A spec spells ``4.0`` as ``4``, so a case echoes a
numeric parameter into a label or an ``extra`` through ``float()``.  :func:`link_byte_table` and
:func:`scripted_case_payload` are the measurement half of the chaos cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional

import numpy as np

from ..analysis.accuracy import classification_accuracy
from ..analysis.metrics import ThroughputDelaySummary, summarize_flow
from ..runtime.build import (
    FluidClassSpec,
    LinkSpec,
    make_multihop_network,
    make_network,
    make_scheme,
)
from ..runtime.executor import BatchExecutor
from ..runtime.spec import ScenarioSpec
from ..simulator import Flow, TopologyNetwork, mbps_to_bytes_per_sec

#: Name of the main (measured) flow in every experiment.
MAIN_FLOW = "main"

__all__ = [
    "ExperimentResult",
    "FluidClassSpec",
    "LinkSpec",
    "MAIN_FLOW",
    "SchemeResult",
    "add_main_flow",
    "link_byte_table",
    "make_multihop_network",
    "make_network",
    "make_scheme",
    "masked_mean",
    "queue_delay_stats",
    "run_cases",
    "scripted_case_payload",
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
    """Container returned by every experiment driver's ``run`` function:
    what the cases computed, per scheme and as reduced ``data``."""

    name: str
    schemes: Dict[str, SchemeResult] = field(default_factory=dict)
    data: dict = field(default_factory=dict)

    def table(self) -> str:
        """Summary table as the runner and the examples print it; the scheme
        column fits the longest label (never narrower than 18)."""
        width = max([18] + [len(scheme) + 2 for scheme in self.schemes])
        lines = [f"== {self.name} ==",
                 f"{'scheme':<{width}}{'tput (Mbit/s)':>15}"
                 f"{'mean delay (ms)':>18}{'p95 delay (ms)':>16}"]
        for scheme, result in self.schemes.items():
            s = result.summary
            lines.append(f"{scheme:<{width}}{s.mean_throughput_mbps:>15.1f}"
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


def masked_mean(series: np.ndarray, mask: np.ndarray) -> float:
    """Mean of the selected samples, 0.0 when the mask selects none."""
    return float(np.mean(series[mask])) if mask.any() else 0.0


def run_cases(run_case: Callable, cases: Iterable[dict],
              result: Optional[ExperimentResult] = None, **shared) -> list:
    """Run ``run_case(**shared, **case)`` for every case as one cached batch
    (the only place a driver meets the batch runtime); payloads in case order.
    Given ``result``, each ``{"scheme", "summary", "extra", "data"}`` payload
    is also filed there under its scheme (``data`` unless it is ``None``).
    A spec's label is its case's values (an object's ``name``) joined by @."""
    payloads = BatchExecutor().run([ScenarioSpec.make(
        run_case, label="@".join(str(getattr(value, "name", value))
                                 for value in case.values()),
        **shared, **case) for case in cases])
    if result is None:
        return payloads
    for payload in payloads:
        scheme = payload["scheme"]
        result.schemes[scheme] = SchemeResult(
            scheme=scheme, summary=payload["summary"],
            extra=payload["extra"])
        if payload["data"] is not None:
            result.data[scheme] = payload["data"]
    return payloads


def link_byte_table(network: TopologyNetwork) -> Dict[str, dict]:
    """Every link's conservation counters (``offered == served + dropped +
    queued``), keyed by link name in attachment order."""
    return {link.name: {"offered_bytes": link.total_offered,
                        "served_bytes": link.total_served,
                        "dropped_bytes": link.total_drops,
                        "queued_bytes": link.queue_bytes}
            for link in network.topology.links}


def scripted_case_payload(network: TopologyNetwork, cross, scheme: str,
                          link_mbps: float, duration: float,
                          fault_windows: int, extra: dict,
                          data: Optional[dict] = None) -> dict:
    """The payload of one finished chaos case (``link_flap``, ``reroute``).

    Main-flow summary, throughput / queue-delay / mode series, mode
    accuracy against the scripted ``cross`` traffic's ground truth and the
    per-link byte table, all after a warm-up of ``min(10, duration / 6)``
    seconds.  Key order is part of the payload's digest: the driver's own
    ``extra`` keys sit between ``fault_windows`` and ``queue``, its ``data``
    keys between ``modes`` and ``per_link``.
    """
    recorder = network.recorder
    warmup = min(10.0, duration / 6.0)
    summary = summarize_flow(recorder, MAIN_FLOW, scheme=scheme,
                             start=warmup)
    times, tput = recorder.throughput_series(MAIN_FLOW)
    _, qdelay = recorder.link_queue_delay_series()
    accuracy = None
    _, modes = recorder.mode_series(MAIN_FLOW)
    if any(m is not None for m in modes):
        accuracy = classification_accuracy(
            times, modes, elastic_truth=cross.elastic_present,
            warmup=warmup, settle=6.0).accuracy
    return {
        "scheme": scheme,
        "summary": summary,
        "extra": {
            "mode_accuracy": accuracy,
            "fault_windows": fault_windows,
            **extra,
            "queue": queue_delay_stats(recorder, start=warmup),
            "main_share": (summary.mean_throughput_mbps / link_mbps
                           if link_mbps else 0.0),
        },
        "data": {
            "times": times,
            "throughput_mbps": tput,
            "queue_delay_ms": qdelay,
            "modes": np.array([m if m is not None else "" for m in modes]),
            **(data or {}),
            "per_link": link_byte_table(network),
        },
    }
