"""Figure 26 (Appendix F): detecting slow-reacting elastic traffic.

PCC-Vivace reacts over multiple monitor intervals rather than one RTT, so at
the default 5 Hz pulse frequency the elasticity metric stays below the
threshold (classified inelastic).  Lengthening the pulses (2 Hz) gives
Vivace time to respond within a pulse period and the metric rises above the
threshold (classified elastic).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..analysis.metrics import summarize_flow
from ..cc import Vivace
from ..core.elasticity import THRESHOLD
from ..simulator import Flow
from .common import (MAIN_FLOW, ExperimentResult, add_main_flow, make_network,
                     run_cases)


def run_case(pulse_frequency: float, link_mbps: float = 96.0,
             prop_rtt: float = 0.05, buffer_ms: float = 100.0,
             duration: float = 60.0, dt: float = 0.002, seed: int = 0) -> dict:
    """Nimbus's eta values, pulsing at ``pulse_frequency`` against Vivace."""
    fp = float(pulse_frequency)
    network = make_network(link_mbps, buffer_ms=buffer_ms, dt=dt, seed=seed)
    flow = add_main_flow(network, "nimbus", link_mbps, prop_rtt=prop_rtt,
                         pulse_frequency=fp)
    network.add_flow(Flow(cc=Vivace(), prop_rtt=prop_rtt, name="vivace"))
    network.run(duration)
    etas = np.array([eta for t, eta in flow.cc.eta_history
                     if t > duration / 3 and np.isfinite(eta)])
    label = f"nimbus@{fp:g}Hz"
    summary = summarize_flow(network.recorder, MAIN_FLOW, scheme=label,
                             start=duration / 3)
    extra = dict(
        pulse_frequency=fp,
        median_eta=float(np.median(etas)) if etas.size else 0.0,
        elastic_fraction=float(np.mean(etas >= THRESHOLD))
        if etas.size else 0.0)
    return {"scheme": label, "summary": summary, "extra": extra, "data": etas}


def run(pulse_frequencies: Iterable[float] = (5.0, 2.0),
        **params) -> ExperimentResult:
    """Run Nimbus against a Vivace cross flow at each pulse frequency."""
    result = ExperimentResult(name="fig26_vivace_pulse")
    payloads = run_cases(
        run_case, [dict(pulse_frequency=fp) for fp in pulse_frequencies],
        result, **params)
    result.data = {"eta_distributions": {
        fp: p["data"] for fp, p in zip(pulse_frequencies, payloads)}}
    return result
