"""Figure 16: multiple Nimbus flows sharing a bottleneck.

Four Nimbus flows (multi-flow protocol enabled) arrive at a 96 Mbit/s link
staggered in time, with no other cross traffic.  They should share the link
fairly, keep delays low (all flows in delay mode nearly all the time), and
maintain at most one pulser via the decentralized election of §6.
"""

from __future__ import annotations

import numpy as np

from ..analysis.accuracy import mode_fraction
from ..analysis.metrics import jain_fairness
from ..cc import MODE_DELAY
from ..core.multiflow import ROLE_PULSER
from ..core.nimbus import Nimbus
from ..simulator import Flow, mbps_to_bytes_per_sec
from .common import ExperimentResult, make_network, queue_delay_stats


def run(n_flows: int = 4, stagger: float = 20.0, flow_duration: float = 80.0,
        link_mbps: float = 96.0, prop_rtt: float = 0.05,
        buffer_ms: float = 100.0, dt: float = 0.002,
        seed: int = 0) -> ExperimentResult:
    """Run staggered Nimbus flows and measure fairness, delay, and roles."""
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
    # Fairness over the window where all flows are active.
    all_active_start = (n_flows - 1) * stagger + 10.0
    all_active_end = min(total, (n_flows - 1) * stagger + flow_duration)
    rates = [recorder.mean_throughput(f"nimbus{i}", start=all_active_start,
                                      end=all_active_end)
             for i in range(n_flows)]
    fairness = jain_fairness(rates)

    delay_fractions = []
    for i in range(n_flows):
        _, modes = recorder.mode_series(f"nimbus{i}")
        delay_fractions.append(mode_fraction(modes, MODE_DELAY))

    pulser_counts = np.array([count for _, count in role_samples])
    result = ExperimentResult(
        name="fig16_multiflow",
        parameters=dict(n_flows=n_flows, stagger=stagger,
                        flow_duration=flow_duration, link_mbps=link_mbps))
    for i in range(n_flows):
        result.add_scheme(f"nimbus{i}", recorder, flow_name=f"nimbus{i}",
                          start=all_active_start, end=all_active_end)
    result.data = {
        "rates_mbps": rates,
        "jain_fairness": fairness,
        "delay_mode_fraction": delay_fractions,
        "pulser_counts": pulser_counts,
        "max_concurrent_pulsers": int(pulser_counts.max()) if pulser_counts.size else 0,
        "mean_pulsers": float(pulser_counts.mean()) if pulser_counts.size else 0.0,
        "queue": queue_delay_stats(recorder, start=10.0),
    }
    return result
