"""Figure 3: the self-inflicted-delay strawman does not reveal elasticity.

The experiment repeats Fig. 1a with a Cubic bulk flow and measures two
quantities per interval: the total queueing delay and the *self-inflicted*
delay (the share of the queue occupied by the flow's own bytes, divided by
the link rate).  Because a flow's queue share is proportional to its
throughput — roughly 50 % in both the elastic and the inelastic phase — the
self-inflicted delay looks the same in both phases and therefore cannot be
used to classify the cross traffic.
"""

from __future__ import annotations

import numpy as np

from ..analysis.metrics import summarize_flow
from ..simulator import mbps_to_bytes_per_sec
from ..traffic import ScriptedCrossTraffic
from .common import (MAIN_FLOW, ExperimentResult, SchemeResult,
                     add_main_flow, make_network, masked_mean, run_cases)
from .fig01_motivation import build_schedule


def run_case(link_mbps: float = 48.0, prop_rtt: float = 0.05,
             buffer_ms: float = 100.0, phase_duration: float = 40.0,
             sample_interval: float = 0.1, dt: float = 0.002,
             seed: int = 0) -> dict:
    """The Cubic flow of Fig. 1a, its own share of the queue sampled every
    ``sample_interval`` (``extra``: the per-phase mean delays)."""
    network = make_network(link_mbps, buffer_ms=buffer_ms, dt=dt, seed=seed)
    flow = add_main_flow(network, "cubic", link_mbps, prop_rtt=prop_rtt)
    cross = ScriptedCrossTraffic(
        network=network, phases=build_schedule(phase_duration, link_mbps),
        prop_rtt=prop_rtt, seed=seed + 7)
    cross.install()

    mu = mbps_to_bytes_per_sec(link_mbps)
    samples: list = []

    def sample(now: float) -> None:
        own_bytes = network.link.occupancy_of(flow.flow_id)
        samples.append((now, own_bytes / mu, network.link.queue_delay))
        network.schedule_call(now + sample_interval, sample)

    network.schedule_call(sample_interval, sample)
    warmup = phase_duration / 2.0
    network.run(warmup + 2 * phase_duration)

    times = np.array([s[0] for s in samples])
    self_inflicted_ms = np.array([s[1] for s in samples]) * 1e3
    total_ms = np.array([s[2] for s in samples]) * 1e3

    elastic_mask = (times >= warmup + 5) & (times <= warmup + phase_duration)
    inelastic_mask = (times >= warmup + phase_duration + 5)

    return {
        "scheme": "cubic",
        "summary": summarize_flow(network.recorder, MAIN_FLOW, scheme="cubic",
                                  start=warmup),
        "extra": {
            "self_inflicted_elastic_mean": masked_mean(self_inflicted_ms,
                                                       elastic_mask),
            "self_inflicted_inelastic_mean": masked_mean(self_inflicted_ms,
                                                         inelastic_mask),
            "total_elastic_mean": masked_mean(total_ms, elastic_mask),
            "total_inelastic_mean": masked_mean(total_ms, inelastic_mask),
        },
        "data": {
            "times": times,
            "self_inflicted_ms": self_inflicted_ms,
            "total_ms": total_ms,
        },
    }


def run(**params) -> ExperimentResult:
    """Run the Cubic flow of Fig. 1a and record self-inflicted vs total delay."""
    result = ExperimentResult(name="fig03_self_inflicted")
    payload, = run_cases(run_case, [{}], **params)
    result.schemes["cubic"] = SchemeResult("cubic", payload["summary"])
    result.data = {**payload["data"], **payload["extra"]}
    return result
