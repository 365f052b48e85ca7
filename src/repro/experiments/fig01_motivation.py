"""Figure 1: the motivating experiment.

A bulk flow shares a 48 Mbit/s, 50 ms link with one long-running Cubic flow
for a period, followed by an inelastic 24 Mbit/s stream.  Cubic keeps the
queue full throughout; a pure delay-controlling scheme gets starved by the
Cubic cross flow; Nimbus competes fairly while the cross traffic is elastic
and drops the queueing delay once it is inelastic.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..analysis.metrics import summarize_flow
from ..simulator import mbps_to_bytes_per_sec
from ..traffic import Phase, ScriptedCrossTraffic
from .common import (
    MAIN_FLOW,
    ExperimentResult,
    add_main_flow,
    make_network,
    queue_delay_stats,
    run_cases,
)

DEFAULT_SCHEMES = ("cubic", "basicdelay", "nimbus")


def build_schedule(phase_duration: float, link_mbps: float) -> list:
    """Idle warmup, one elastic Cubic phase, one 50%-rate inelastic phase."""
    mu = mbps_to_bytes_per_sec(link_mbps)
    return [
        Phase(duration=phase_duration / 2.0),
        Phase(duration=phase_duration, elastic_flows=1),
        Phase(duration=phase_duration, inelastic_rate=0.5 * mu),
    ]


def run_case(scheme: str, link_mbps: float = 48.0, prop_rtt: float = 0.05,
             buffer_ms: float = 100.0, phase_duration: float = 60.0,
             dt: float = 0.002, seed: int = 0) -> dict:
    """One scheme through the Fig. 1 schedule, summarised per phase."""
    warmup = phase_duration / 2.0
    elastic_window = (warmup + 5.0, warmup + phase_duration)
    inelastic_window = (warmup + phase_duration + 5.0,
                        warmup + 2 * phase_duration)
    network = make_network(link_mbps, buffer_ms=buffer_ms, dt=dt, seed=seed)
    add_main_flow(network, scheme, link_mbps, prop_rtt=prop_rtt)
    ScriptedCrossTraffic(
        network=network, phases=build_schedule(phase_duration, link_mbps),
        prop_rtt=prop_rtt, seed=seed + 7).install()
    network.run(warmup + 2 * phase_duration)

    recorder = network.recorder
    times, tput = recorder.throughput_series(MAIN_FLOW)
    _, qdelay = recorder.link_queue_delay_series()

    def window_mean(series: np.ndarray, window) -> float:
        mask = (times >= window[0]) & (times <= window[1])
        return float(np.mean(series[mask])) if mask.any() else 0.0

    summary = summarize_flow(recorder, MAIN_FLOW, scheme=scheme, start=warmup)
    extra = dict(
        elastic_throughput=window_mean(tput, elastic_window),
        inelastic_throughput=window_mean(tput, inelastic_window),
        elastic_delay_ms=window_mean(qdelay, elastic_window),
        inelastic_delay_ms=window_mean(qdelay, inelastic_window),
        queue=queue_delay_stats(recorder, start=warmup))
    data = {"times": times, "throughput_mbps": tput, "queue_delay_ms": qdelay}
    return {"scheme": scheme, "summary": summary, "extra": extra, "data": data}


def run(schemes: Iterable[str] = DEFAULT_SCHEMES,
        phase_duration: float = 60.0, **params) -> ExperimentResult:
    """Run the Fig. 1 scenario for each scheme and summarise per phase."""
    result = ExperimentResult(name="fig01_motivation")
    run_cases(run_case, [dict(scheme=scheme) for scheme in schemes], result,
              phase_duration=phase_duration, **params)
    warmup = phase_duration / 2.0
    result.data["windows"] = {
        "elastic": (warmup + 5.0, warmup + phase_duration),
        "inelastic": (warmup + phase_duration + 5.0,
                      warmup + 2 * phase_duration),
    }
    return result
