"""Figure 24 (Appendix D.2): Copa vs. Nimbus against an elastic NewReno flow.

With equal RTTs both schemes classify the cross traffic correctly and get a
fair share.  When the NewReno flow's RTT is 4x larger it ramps slowly, the
queue keeps draining, Copa concludes there is no buffer-filling traffic and
stays in its default mode — losing throughput — while Nimbus detects the
elasticity and keeps (its RTT-biased share of) the bandwidth.
"""

from __future__ import annotations

from typing import Dict, Iterable

from ..analysis.accuracy import mode_fraction
from ..analysis.metrics import summarize_flow
from ..cc import MODE_COMPETITIVE, NewReno
from ..simulator import Flow
from .common import (MAIN_FLOW, ExperimentResult, add_main_flow, make_network,
                     run_cases)


def run_case(scheme: str, rtt_ratio: float, link_mbps: float = 96.0,
             prop_rtt: float = 0.05, buffer_ms: float = 100.0,
             duration: float = 60.0, dt: float = 0.002, seed: int = 0) -> dict:
    """One scheme against a NewReno flow at ``rtt_ratio`` times its RTT."""
    ratio, warmup = float(rtt_ratio), duration / 3.0
    network = make_network(link_mbps, buffer_ms=buffer_ms, dt=dt, seed=seed)
    add_main_flow(network, scheme, link_mbps, prop_rtt=prop_rtt)
    network.add_flow(Flow(cc=NewReno(), prop_rtt=prop_rtt * ratio,
                          name="reno"))
    network.run(duration)
    recorder = network.recorder
    label = f"{scheme}@rtt{ratio:g}x"
    _, modes = recorder.mode_series(MAIN_FLOW)
    summary = summarize_flow(recorder, MAIN_FLOW, scheme=label, start=warmup)
    extra = dict(
        rtt_ratio=ratio,
        reno_throughput=recorder.mean_throughput("reno", start=warmup),
        competitive_fraction=mode_fraction(modes, MODE_COMPETITIVE))
    return {"scheme": label, "summary": summary, "extra": extra, "data": None}


def run(rtt_ratios: Iterable[float] = (1.0, 4.0),
        schemes: Iterable[str] = ("copa", "nimbus"),
        link_mbps: float = 96.0, **params) -> ExperimentResult:
    """Run each scheme against a NewReno flow at each RTT ratio."""
    result = ExperimentResult(name="fig24_copa_rtt")
    cases = [dict(scheme=scheme, rtt_ratio=ratio)
             for ratio in rtt_ratios for scheme in schemes]
    payloads = run_cases(run_case, cases, result, link_mbps=link_mbps,
                         **params)
    throughput: Dict[str, Dict[float, float]] = {s: {} for s in schemes}
    for case, payload in zip(cases, payloads):
        throughput[case["scheme"]][case["rtt_ratio"]] = (
            payload["summary"].mean_throughput_mbps)
    result.data["throughput"] = throughput
    result.data["fair_share_mbps"] = link_mbps / 2.0
    return result
