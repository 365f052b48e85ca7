"""End-to-end behavioural tests reproducing the paper's headline claims at
reduced scale (fast enough for the unit-test suite)."""

import numpy as np
import pytest

from repro.cc import Copa, Cubic, NullCC, Vegas
from repro.core.nimbus import Nimbus
from repro.runtime import make_network
from repro.simulator import Flow, mbps_to_bytes_per_sec
from repro.traffic import PoissonSource

LINK_MBPS = 24
MU = mbps_to_bytes_per_sec(LINK_MBPS)


def build(main_cc, cross: str, duration=35.0, seed=0):
    network = make_network(link_mbps=LINK_MBPS, buffer_ms=100, dt=0.004)
    network.add_flow(Flow(cc=main_cc, prop_rtt=0.05, name="main"))
    if cross == "elastic":
        network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="cross"))
    elif cross == "inelastic":
        network.add_flow(Flow(cc=NullCC(), prop_rtt=0.05,
                              source=PoissonSource(0.5 * MU, seed=seed + 1),
                              name="cross"))
    network.run(duration)
    return network


def mean_queue_delay(network, start_fraction=0.4):
    _, qd = network.recorder.link_queue_delay_series()
    tail = qd[int(len(qd) * start_fraction):]
    return float(np.mean(tail))


@pytest.mark.slow
class TestHeadlineClaims:
    def test_cubic_fills_buffer_against_inelastic(self):
        network = build(Cubic(), "inelastic")
        assert mean_queue_delay(network) > 50.0

    def test_vegas_keeps_delay_low_against_inelastic(self):
        network = build(Vegas(), "inelastic")
        assert mean_queue_delay(network) < 20.0

    def test_vegas_starved_by_elastic(self):
        network = build(Vegas(), "elastic")
        vegas = network.recorder.mean_throughput("main", start=15.0)
        cubic = network.recorder.mean_throughput("cross", start=15.0)
        assert vegas < 0.3 * cubic

    def test_nimbus_low_delay_against_inelastic(self):
        network = build(Nimbus(mu=MU), "inelastic")
        # Much lower than Cubic's buffer-filling delay.
        assert mean_queue_delay(network) < 40.0

    def test_nimbus_throughput_against_inelastic(self):
        network = build(Nimbus(mu=MU), "inelastic")
        tput = network.recorder.mean_throughput("main", start=15.0)
        assert tput == pytest.approx(LINK_MBPS / 2, rel=0.3)

    def test_nimbus_competes_against_elastic(self):
        network = build(Nimbus(mu=MU), "elastic", duration=40.0)
        nimbus = network.recorder.mean_throughput("main", start=15.0)
        cubic = network.recorder.mean_throughput("cross", start=15.0)
        # Within a factor of ~2.5 of the Cubic competitor (Vegas, by
        # contrast, is starved to < 0.3x in test_vegas_starved_by_elastic).
        assert nimbus > 0.4 * cubic

    def test_nimbus_beats_cubic_on_delay_at_equal_throughput(self):
        cubic_net = build(Cubic(), "inelastic", seed=3)
        nimbus_net = build(Nimbus(mu=MU), "inelastic", seed=3)
        cubic_tput = cubic_net.recorder.mean_throughput("main", start=15.0)
        nimbus_tput = nimbus_net.recorder.mean_throughput("main", start=15.0)
        assert nimbus_tput > 0.8 * cubic_tput
        assert mean_queue_delay(nimbus_net) < 0.7 * mean_queue_delay(cubic_net)

    def test_copa_low_delay_against_light_inelastic(self):
        network = make_network(link_mbps=LINK_MBPS, buffer_ms=100, dt=0.004)
        network.add_flow(Flow(cc=Copa(), prop_rtt=0.05, name="main"))
        network.add_flow(Flow(cc=NullCC(), prop_rtt=0.05,
                              source=PoissonSource(0.25 * MU, seed=5),
                              name="cross"))
        network.run(35.0)
        assert mean_queue_delay(network) < 25.0

    def test_mode_switch_back_to_delay_after_elastic_leaves(self):
        network = make_network(link_mbps=LINK_MBPS, buffer_ms=100, dt=0.004)
        nimbus = Nimbus(mu=MU)
        network.add_flow(Flow(cc=nimbus, prop_rtt=0.05, name="main"))
        cross = Flow(cc=Cubic(), prop_rtt=0.05, start_time=5.0, name="cross")
        network.add_flow(cross)
        network.schedule_call(25.0, lambda now: cross.stop(now))
        network.run(45.0)
        times, modes = network.recorder.mode_series("main")
        # In competitive mode while the Cubic flow was active...
        active = [m for t, m in zip(times, modes) if 15 <= t <= 25 and m]
        after = [m for t, m in zip(times, modes) if t >= 37 and m]
        assert active.count("competitive") > len(active) * 0.5
        # ...and back in delay mode within ~2 FFT windows of it leaving.
        assert after.count("delay") > len(after) * 0.7
