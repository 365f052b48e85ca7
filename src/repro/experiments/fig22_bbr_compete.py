"""Figure 22 (Appendix C): competing against a BBR flow.

With shallow buffers BBR is rate-driven (not ACK-clocked), Nimbus classifies
it as inelastic, and both Nimbus and Cubic receive only a small share of the
link because BBR is aggressive.  With deep buffers BBR's inflight cap makes
it ACK-clocked, Nimbus classifies it as elastic and competes, matching
Cubic's throughput.  The claim reproduced here is that Nimbus's throughput
against BBR tracks Cubic's across buffer sizes.
"""

from __future__ import annotations

from typing import Dict, Iterable

from ..analysis.metrics import summarize_flow
from ..cc import Bbr
from ..core.elasticity import pulse_sent
from ..simulator import Flow
from .common import (MAIN_FLOW, ExperimentResult, add_main_flow, make_network,
                     run_cases)


def run_case(scheme: str, buffer_bdp: float, link_mbps: float = 96.0,
             prop_rtt: float = 0.05, duration: float = 50.0,
             dt: float = 0.002, seed: int = 0) -> dict:
    """One scheme against one BBR flow, the buffer ``buffer_bdp`` BDPs deep."""
    multiplier, warmup = float(buffer_bdp), duration / 4.0
    network = make_network(link_mbps, buffer_ms=prop_rtt * 1e3 * multiplier,
                           dt=dt, seed=seed)
    main = add_main_flow(network, scheme, link_mbps, prop_rtt=prop_rtt)
    network.add_flow(Flow(cc=Bbr(), prop_rtt=prop_rtt, name="bbr"))
    network.run(duration)
    recorder = network.recorder
    label = f"{scheme}@{multiplier}bdp"
    summary = summarize_flow(recorder, MAIN_FLOW, scheme=label, start=warmup)
    extra = dict(buffer_bdp=multiplier,
                 bbr_throughput=recorder.mean_throughput("bbr", start=warmup),
                 pulse_sent_mbps=None, pulse_sent_ratio=None)
    if scheme == "nimbus":
        # The pulse that left the sender, against the one it scheduled.
        nimbus = main.cc
        times = nimbus.estimator.times()
        after = times >= warmup
        magnitude, ratio = pulse_sent(
            times[after], nimbus.estimator.s_series()[after],
            nimbus.current_pulse, nimbus.mu)
        extra.update(pulse_sent_mbps=magnitude * 8 / 1e6,
                     pulse_sent_ratio=ratio)
    return {"scheme": label, "summary": summary, "extra": extra, "data": None}


def run(buffer_bdp_multipliers: Iterable[float] = (0.5, 2.0),
        schemes: Iterable[str] = ("nimbus", "cubic"),
        **params) -> ExperimentResult:
    """Run each scheme against one BBR flow for each buffer size."""
    result = ExperimentResult(name="fig22_bbr_compete")
    cases = [dict(scheme=scheme, buffer_bdp=multiplier)
             for multiplier in buffer_bdp_multipliers for scheme in schemes]
    payloads = run_cases(run_case, cases, result, **params)
    throughput: Dict[float, Dict[str, float]] = {}
    for case, payload in zip(cases, payloads):
        throughput.setdefault(case["buffer_bdp"], {})[case["scheme"]] = (
            payload["summary"].mean_throughput_mbps)
    result.data["throughput"] = throughput
    return result
