"""Figure 16: multiple Nimbus flows sharing a bottleneck.

Four Nimbus flows (multi-flow protocol enabled) arrive at a 96 Mbit/s link
staggered in time, with no other cross traffic.  They should share the link
fairly, keep delays low (all flows in delay mode nearly all the time), and
maintain at most one pulser via the decentralized election of §6.
"""

from __future__ import annotations

import numpy as np

from ..analysis.accuracy import mode_fraction
from ..analysis.metrics import jain_fairness, summarize_flow
from ..cc import MODE_DELAY
from ..core.multiflow import ROLE_PULSER
from ..core.nimbus import Nimbus
from ..simulator import Flow, mbps_to_bytes_per_sec
from .common import (ExperimentResult, SchemeResult, make_network,
                     queue_delay_stats, run_cases)


def run_case(n_flows: int = 4, stagger: float = 20.0,
             flow_duration: float = 80.0, link_mbps: float = 96.0,
             prop_rtt: float = 0.05, buffer_ms: float = 100.0,
             dt: float = 0.002, seed: int = 0) -> dict:
    """The staggered flows on one link.  One payload for the whole run:
    ``summary`` is the first flow's, ``data["flows"]`` holds every flow's,
    all over the window in which every flow is active."""
    network = make_network(link_mbps, buffer_ms=buffer_ms, dt=dt, seed=seed)
    mu = mbps_to_bytes_per_sec(link_mbps)
    flows = []
    role_samples: list = []
    for i in range(n_flows):
        nimbus = Nimbus(mu=mu, multi_flow=True, seed=seed + i)
        flow = Flow(cc=nimbus, prop_rtt=prop_rtt, start_time=i * stagger,
                    name=f"nimbus{i}")
        network.add_flow(flow)
        flows.append(flow)

    def sample_roles(now: float) -> None:
        pulsers = sum(1 for f in flows
                      if f.active and f.cc.role == ROLE_PULSER)
        role_samples.append((now, pulsers))
        network.schedule_call(now + 1.0, sample_roles)

    network.schedule_call(1.0, sample_roles)
    total = (n_flows - 1) * stagger + flow_duration
    network.run(total)

    recorder = network.recorder
    names = [f"nimbus{i}" for i in range(n_flows)]
    # Fairness over the window where all flows are active.
    all_active_start = (n_flows - 1) * stagger + 10.0
    summaries = {name: summarize_flow(recorder, name, start=all_active_start,
                                      end=total)
                 for name in names}
    rates = [summary.mean_throughput_mbps for summary in summaries.values()]
    delay_fractions = [mode_fraction(recorder.mode_series(name)[1],
                                     MODE_DELAY) for name in names]
    pulser_counts = np.array([count for _, count in role_samples])
    return {
        "scheme": names[0],
        "summary": summaries[names[0]],
        "extra": {
            "jain_fairness": jain_fairness(rates),
            "max_concurrent_pulsers": (int(pulser_counts.max())
                                       if pulser_counts.size else 0),
            "mean_pulsers": (float(pulser_counts.mean())
                             if pulser_counts.size else 0.0),
            "queue": queue_delay_stats(recorder, start=10.0),
        },
        "data": {
            "flows": summaries,
            "rates_mbps": rates,
            "delay_mode_fraction": delay_fractions,
            "pulser_counts": pulser_counts,
        },
    }


def run(**params) -> ExperimentResult:
    """Run staggered Nimbus flows and measure fairness, delay, and roles."""
    result = ExperimentResult(name="fig16_multiflow")
    payload, = run_cases(run_case, [{}], **params)
    extra, data = payload["extra"], payload["data"]
    for name, summary in data["flows"].items():
        result.schemes[name] = SchemeResult(name, summary)
    result.data = {
        "rates_mbps": data["rates_mbps"],
        "jain_fairness": extra["jain_fairness"],
        "delay_mode_fraction": data["delay_mode_fraction"],
        "pulser_counts": data["pulser_counts"],
        "max_concurrent_pulsers": extra["max_concurrent_pulsers"],
        "mean_pulsers": extra["mean_pulsers"],
        "queue": extra["queue"],
    }
    return result
