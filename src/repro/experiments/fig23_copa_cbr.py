"""Figure 23 (Appendix D.1): Copa vs. Nimbus against constant-rate traffic.

The constant-rate stream is modelled with Poisson packet arrivals at the
target rate: real CBR traffic is packetised and arrives with jitter, which
is exactly what prevents Copa from draining the queue at high load.

At a low CBR rate (25 % of the link) both Copa and Nimbus keep queueing
delay low.  When the CBR stream occupies ~83 % of the link, the queue can
never drain within 5 RTTs, Copa misclassifies the traffic as buffer-filling
and gets stuck in competitive mode with high delay, while Nimbus still
classifies it as inelastic and keeps delay low.
"""

from __future__ import annotations

from typing import Dict, Iterable

from ..analysis.accuracy import mode_fraction
from ..analysis.metrics import summarize_flow
from ..cc import MODE_COMPETITIVE, NullCC
from ..simulator import Flow, mbps_to_bytes_per_sec
from ..traffic import PoissonSource
from .common import (
    MAIN_FLOW,
    ExperimentResult,
    add_main_flow,
    make_network,
    queue_delay_stats,
    run_cases,
)


def run_case(scheme: str, cbr_fraction: float, link_mbps: float = 96.0,
             prop_rtt: float = 0.05, buffer_ms: float = 100.0,
             duration: float = 50.0, dt: float = 0.002, seed: int = 0) -> dict:
    """One scheme against a stream at ``cbr_fraction`` of the link rate."""
    fraction, warmup = float(cbr_fraction), duration / 4.0
    network = make_network(link_mbps, buffer_ms=buffer_ms, dt=dt, seed=seed)
    mu = mbps_to_bytes_per_sec(link_mbps)
    add_main_flow(network, scheme, link_mbps, prop_rtt=prop_rtt)
    network.add_flow(Flow(cc=NullCC(), prop_rtt=prop_rtt,
                          source=PoissonSource(fraction * mu, seed=seed + 17),
                          name="cbr"))
    network.run(duration)
    recorder = network.recorder
    label = f"{scheme}@cbr{int(fraction * 100)}"
    _, modes = recorder.mode_series(MAIN_FLOW)
    summary = summarize_flow(recorder, MAIN_FLOW, scheme=label, start=warmup)
    extra = dict(cbr_fraction=fraction,
                 queue=queue_delay_stats(recorder, start=warmup),
                 competitive_fraction=mode_fraction(modes, MODE_COMPETITIVE))
    return {"scheme": label, "summary": summary, "extra": extra, "data": None}


def run(cbr_fractions: Iterable[float] = (0.25, 0.83),
        schemes: Iterable[str] = ("copa", "nimbus"),
        **params) -> ExperimentResult:
    """Run each scheme against CBR streams of the given rates."""
    result = ExperimentResult(name="fig23_copa_cbr")
    cases = [dict(scheme=scheme, cbr_fraction=fraction)
             for fraction in cbr_fractions for scheme in schemes]
    payloads = run_cases(run_case, cases, result, **params)
    delays: Dict[str, Dict[float, float]] = {s: {} for s in schemes}
    for case, payload in zip(cases, payloads):
        delays[case["scheme"]][case["cbr_fraction"]] = (
            payload["extra"]["queue"]["mean"])
    result.data["mean_queue_delay_ms"] = delays
    return result
