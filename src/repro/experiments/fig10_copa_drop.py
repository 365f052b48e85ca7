"""Figure 10: Copa's throughput drops against elastic flows; Nimbus's does not.

A bulk flow (Nimbus or Copa) shares the link with a long-running Cubic flow
that arrives mid-experiment.  Copa's mode detector misfires intermittently
and its throughput collapses for extended periods, while Nimbus switches to
TCP-competitive mode and keeps its fair share.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..analysis.metrics import summarize_flow
from ..cc import Cubic
from ..simulator import Flow
from .common import (MAIN_FLOW, ExperimentResult, add_main_flow, make_network,
                     run_cases)


def run_case(scheme: str, link_mbps: float = 96.0, prop_rtt: float = 0.05,
             buffer_ms: float = 100.0, elastic_start: float = 15.0,
             duration: float = 60.0, cross_rtt_ratio: float = 2.0,
             dt: float = 0.002, seed: int = 0) -> dict:
    """One scheme against a Cubic flow that arrives at ``elastic_start``."""
    fair_share = link_mbps / 2.0
    network = make_network(link_mbps, buffer_ms=buffer_ms, dt=dt, seed=seed)
    add_main_flow(network, scheme, link_mbps, prop_rtt=prop_rtt)
    network.add_flow(Flow(cc=Cubic(), prop_rtt=prop_rtt * cross_rtt_ratio,
                          start_time=elastic_start, name="cross"))
    network.run(duration)
    recorder = network.recorder
    times, tput = recorder.throughput_series(MAIN_FLOW)
    window = (times >= elastic_start + 10.0) & (times <= duration)
    during_elastic = float(np.mean(tput[window])) if window.any() else 0.0
    # Fraction of 1-second intervals far below the fair share: Copa's
    # characteristic starvation periods.
    starved = float(np.mean(tput[window] < 0.5 * fair_share)) if window.any() else 0.0
    summary = summarize_flow(recorder, MAIN_FLOW, scheme=scheme,
                             start=elastic_start + 10.0)
    extra = dict(throughput_during_elastic=during_elastic,
                 starved_fraction=starved, fair_share_mbps=fair_share)
    return {"scheme": scheme, "summary": summary, "extra": extra,
            "data": {"times": times, "throughput_mbps": tput}}


def run(schemes: Iterable[str] = ("nimbus", "copa"),
        **params) -> ExperimentResult:
    """Compare Nimbus and Copa throughput while an elastic flow is active.

    The cross flow uses a larger RTT (2x by default), the regime in which
    Copa's queue-draining heuristic is most easily fooled (§8.2).
    """
    result = ExperimentResult(name="fig10_copa_drop")
    run_cases(run_case, [dict(scheme=scheme) for scheme in schemes], result,
              **params)
    return result
