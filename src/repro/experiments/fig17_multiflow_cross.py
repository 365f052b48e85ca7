"""Figure 17: multiple Nimbus flows with elastic then inelastic cross traffic.

Three Nimbus flows run throughout on a 192 Mbit/s link.  For the first part
the cross traffic is three Cubic flows (elastic); afterwards it is a
96 Mbit/s constant-bit-rate stream (inelastic).  The Nimbus aggregate should
get its fair share in the first phase and keep queueing delay low in the
second.
"""

from __future__ import annotations

import numpy as np

from ..analysis.metrics import summarize_flow
from ..core.nimbus import Nimbus
from ..simulator import Flow, mbps_to_bytes_per_sec
from ..traffic import Phase, ScriptedCrossTraffic
from .common import (ExperimentResult, SchemeResult, make_network,
                     masked_mean, run_cases)


def run_case(n_flows: int = 3, link_mbps: float = 192.0,
             prop_rtt: float = 0.05, buffer_ms: float = 100.0,
             phase_duration: float = 60.0, warmup: float = 30.0,
             dt: float = 0.002, seed: int = 0) -> dict:
    """The two-phase scenario.  One payload for the whole run: ``summary``
    is the first flow's, ``data["flows"]`` holds every flow's."""
    network = make_network(link_mbps, buffer_ms=buffer_ms, dt=dt, seed=seed)
    mu = mbps_to_bytes_per_sec(link_mbps)
    for i in range(n_flows):
        nimbus = Nimbus(mu=mu, multi_flow=True, seed=seed + i)
        network.add_flow(Flow(cc=nimbus, prop_rtt=prop_rtt,
                              name=f"nimbus{i}"))

    phases = [
        Phase(duration=phase_duration, elastic_flows=3),
        Phase(duration=phase_duration, inelastic_rate=0.5 * mu),
    ]
    cross = ScriptedCrossTraffic(network=network, phases=phases,
                                 prop_rtt=prop_rtt, start=warmup,
                                 seed=seed + 7)
    cross.install()
    total = warmup + 2 * phase_duration
    network.run(total)

    recorder = network.recorder
    names = [f"nimbus{i}" for i in range(n_flows)]
    times, _ = recorder.throughput_series(names[0])
    aggregate = np.zeros_like(times)
    for name in names:
        _, series = recorder.throughput_series(name)
        aggregate += series
    _, qdelay = recorder.link_queue_delay_series()

    elastic_window = (times >= warmup + 10) & (times <= warmup + phase_duration)
    inelastic_window = times >= warmup + phase_duration + 10

    summaries = {name: summarize_flow(recorder, name, start=warmup)
                 for name in names}
    return {
        "scheme": names[0],
        "summary": summaries[names[0]],
        "extra": {
            "aggregate_elastic_mean": masked_mean(aggregate, elastic_window),
            "aggregate_inelastic_mean": masked_mean(aggregate,
                                                    inelastic_window),
            "delay_elastic_mean_ms": masked_mean(qdelay, elastic_window),
            "delay_inelastic_mean_ms": masked_mean(qdelay, inelastic_window),
            # Fair share of the aggregate: n_flows/(n_flows + 3 cubic) of
            # the link in the elastic phase, and everything the CBR leaves
            # in the second phase.
            "fair_share_elastic_mbps": link_mbps * n_flows / (n_flows + 3),
            "fair_share_inelastic_mbps": link_mbps * 0.5,
        },
        "data": {
            "flows": summaries,
            "times": times,
            "aggregate_mbps": aggregate,
            "queue_delay_ms": qdelay,
        },
    }


def run(**params) -> ExperimentResult:
    """Run the two-phase multi-flow scenario."""
    result = ExperimentResult(name="fig17_multiflow_cross")
    payload, = run_cases(run_case, [{}], **params)
    series = dict(payload["data"])
    for name, summary in series.pop("flows").items():
        result.schemes[name] = SchemeResult(name, summary)
    result.data = {**series, **payload["extra"]}
    return result
