"""Figure 8: behaviour under time-varying cross traffic.

The cross traffic cycles through mixes of inelastic Poisson traffic
("xM" = x Mbit/s) and long-running Cubic flows ("yT" = y flows), and each
scheme is judged on how closely it tracks its fair share and how low it
keeps the queueing delay.  Mode-switching schemes (Nimbus, Copa) should be
in TCP-competitive mode exactly when Cubic cross flows are present.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from ..analysis.accuracy import classification_accuracy
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

#: The paper's phase schedule: (inelastic Mbit/s, number of Cubic flows).
PAPER_SCHEDULE: Tuple[Tuple[float, int], ...] = (
    (16, 1), (32, 2), (0, 4), (0, 3), (0, 1),
    (16, 0), (32, 0), (48, 0), (16, 0),
)


def build_phases(schedule: Iterable[Tuple[float, int]],
                 phase_duration: float) -> List[Phase]:
    """Convert (Mbit/s, flow-count) pairs into scripted phases."""
    phases = []
    for rate_mbps, n_flows in schedule:
        phases.append(Phase(duration=phase_duration,
                            inelastic_rate=mbps_to_bytes_per_sec(rate_mbps),
                            elastic_flows=n_flows))
    return phases


def run_case(scheme: str,
             schedule: Iterable[Tuple[float, int]] = PAPER_SCHEDULE,
             phase_duration: float = 20.0, link_mbps: float = 96.0,
             prop_rtt: float = 0.05, buffer_ms: float = 100.0,
             dt: float = 0.002, seed: int = 0) -> dict:
    """One scheme through the schedule: tracking, delay and mode accuracy."""
    network = make_network(link_mbps, buffer_ms=buffer_ms, dt=dt, seed=seed)
    add_main_flow(network, scheme, link_mbps, prop_rtt=prop_rtt)
    cross = ScriptedCrossTraffic(network=network,
                                 phases=build_phases(schedule,
                                                     phase_duration),
                                 prop_rtt=prop_rtt, seed=seed + 7)
    cross.install()
    network.run(phase_duration * len(schedule))

    recorder = network.recorder
    times, tput = recorder.throughput_series(MAIN_FLOW)
    _, qdelay = recorder.link_queue_delay_series()
    mu = mbps_to_bytes_per_sec(link_mbps)
    fair = np.array([cross.fair_share(t, mu) * 8 / 1e6 for t in times])

    # How close does the scheme track its fair share (excluding the
    # detector's reaction window after each phase change)?
    warmup = 10.0
    mask = times > warmup
    tracking_error = float(np.mean(np.abs(tput[mask] - fair[mask]))
                           / max(np.mean(fair[mask]), 1e-9)) if mask.any() else 1.0

    extra = dict(
        fair_share_mean=float(np.mean(fair[mask])) if mask.any() else 0.0,
        tracking_error=tracking_error,
        queue=queue_delay_stats(recorder, start=warmup),
    )
    _, modes = recorder.mode_series(MAIN_FLOW)
    if any(m is not None for m in modes):
        report = classification_accuracy(
            times, modes, elastic_truth=cross.elastic_present,
            warmup=warmup, settle=6.0)
        extra["mode_accuracy"] = report.accuracy
    summary = summarize_flow(recorder, MAIN_FLOW, scheme=scheme, start=warmup)
    return {"scheme": scheme, "summary": summary, "extra": extra, "data": {
        "times": times,
        "throughput_mbps": tput,
        "fair_share_mbps": fair,
        "queue_delay_ms": qdelay,
        "modes": modes,
    }}


def run(schemes: Iterable[str] = ("nimbus", "cubic", "copa"),
        schedule: Iterable[Tuple[float, int]] = PAPER_SCHEDULE,
        **params) -> ExperimentResult:
    """Run the schedule for each scheme and summarise tracking quality."""
    result = ExperimentResult(name="fig08_time_varying")
    run_cases(run_case, [dict(scheme=scheme) for scheme in schemes], result,
              schedule=tuple(schedule), **params)
    return result
