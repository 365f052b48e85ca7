#!/usr/bin/env python3
"""Quickstart: detect cross-traffic elasticity and switch modes with Nimbus.

Builds a single 48 Mbit/s bottleneck, runs one Nimbus flow against first an
elastic (Cubic) and then an inelastic (Poisson) competitor, and prints the
elasticity metric, the chosen mode, the throughput and the queueing delay in
each case — the essence of Figure 1 of the paper.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import Cubic, Flow, Nimbus
from repro.cc import NullCC
from repro.core.elasticity import THRESHOLD
from repro.runtime import make_network
from repro.simulator import mbps_to_bytes_per_sec
from repro.traffic import PoissonSource

LINK_MBPS = 48.0
RTT = 0.05           # 50 ms propagation round-trip time
DURATION = 40.0      # seconds of simulated time per scenario


def run_scenario(cross_traffic: str) -> None:
    """Run Nimbus against one kind of cross traffic and print a summary."""
    network = make_network(link_mbps=LINK_MBPS, buffer_ms=100, dt=0.002)
    mu = mbps_to_bytes_per_sec(LINK_MBPS)

    nimbus = Nimbus(mu=mu)
    network.add_flow(Flow(cc=nimbus, prop_rtt=RTT, name="nimbus"))

    if cross_traffic == "elastic":
        # A long-running Cubic flow: backlogged, ACK-clocked, buffer-filling.
        network.add_flow(Flow(cc=Cubic(), prop_rtt=RTT, name="cross"))
    else:
        # A Poisson stream at half the link rate: never reacts to congestion.
        network.add_flow(Flow(cc=NullCC(), prop_rtt=RTT,
                              source=PoissonSource(0.5 * mu, seed=1),
                              name="cross"))

    network.run(DURATION)

    recorder = network.recorder
    _, queue_delay_ms = recorder.link_queue_delay_series()
    steady = queue_delay_ms[len(queue_delay_ms) // 3:]
    etas = [eta for t, eta in nimbus.eta_history if t > DURATION / 3]

    print(f"--- cross traffic: {cross_traffic} ---")
    print(f"  elasticity metric (median eta) : {np.median(etas):6.2f}  "
          f"(threshold {THRESHOLD})")
    print(f"  final mode                     : {nimbus.mode}")
    print(f"  nimbus throughput              : "
          f"{recorder.mean_throughput('nimbus', start=15.0):6.1f} Mbit/s")
    print(f"  cross-traffic throughput       : "
          f"{recorder.mean_throughput('cross', start=15.0):6.1f} Mbit/s")
    print(f"  mean queueing delay            : {np.mean(steady):6.1f} ms")
    print()


def main() -> None:
    print(f"Nimbus on a {LINK_MBPS:.0f} Mbit/s link, {RTT * 1e3:.0f} ms RTT\n")
    run_scenario("elastic")
    run_scenario("inelastic")
    print("Against the elastic Cubic flow Nimbus switches to TCP-competitive\n"
          "mode and takes its fair share; against the inelastic stream it\n"
          "stays in delay-control mode and keeps the queue short.")


if __name__ == "__main__":
    main()
