"""Rate-based algorithms: BBR, PCC-Vivace, and the simple reference senders."""

import pytest

from repro.cc import Bbr, Cubic, FixedWindow, NullCC, Vivace
from repro.cc.bbr import PROBE_BW, STARTUP
from repro.runtime import make_network
from repro.simulator import Flow, mbps_to_bytes_per_sec
from repro.simulator.source import PacedSource
from repro.simulator.units import MSS_BYTES


class TestBbrUnit:
    def test_initial_state(self):
        bbr = Bbr()
        assert bbr.state == STARTUP

    def test_model_from_samples(self):
        bbr = Bbr()
        flow = Flow(cc=bbr, prop_rtt=0.05)
        flow.flow_id = 0
        flow.start(0.0)
        for i in range(200):
            t = i * 0.01
            bbr.measurement.on_send(t, MSS_BYTES)
            bbr.measurement.on_ack(t + 0.05, MSS_BYTES, 0.05, 0.0)
            bbr.on_control_tick(t + 0.05, 0.01)
        assert bbr.btl_bw > 0
        assert bbr.rt_prop == pytest.approx(0.05, rel=0.05)
        assert bbr.rate is not None and bbr.rate > 0


class TestBbrIntegration:
    @pytest.fixture(scope="class")
    def bbr_run(self):
        network = make_network(link_mbps=24, buffer_ms=100, dt=0.004)
        flow = Flow(cc=Bbr(), prop_rtt=0.05, name="bbr")
        network.add_flow(flow)
        network.run(25.0)
        return network, flow

    def test_reaches_link_rate(self, bbr_run):
        network, _ = bbr_run
        assert network.recorder.mean_throughput("bbr", start=10.0) == \
            pytest.approx(24.0, rel=0.15)

    def test_exits_startup(self, bbr_run):
        _, flow = bbr_run
        assert flow.cc.state in (PROBE_BW, "probe_rtt", "drain")

    def test_bandwidth_estimate_close_to_link(self, bbr_run):
        _, flow = bbr_run
        assert flow.cc.btl_bw == pytest.approx(mbps_to_bytes_per_sec(24),
                                               rel=0.2)

    def test_queue_bounded_by_inflight_cap(self, bbr_run):
        network, _ = bbr_run
        import numpy as np
        _, qd = network.recorder.link_queue_delay_series()
        # BBR alone should not sit at the full 100 ms buffer.
        assert float(np.mean(qd[len(qd) // 2:])) < 90.0


class TestVivace:
    def test_rate_grows_on_empty_link(self):
        network = make_network(link_mbps=24, buffer_ms=100, dt=0.004)
        flow = Flow(cc=Vivace(), prop_rtt=0.05, name="vivace")
        network.add_flow(flow)
        network.run(20.0)
        assert network.recorder.mean_throughput("vivace", start=10.0) > 10.0

    def test_utility_penalises_latency_growth(self):
        rate_mbps = 10.0
        flat = rate_mbps ** Vivace.EXPONENT
        penalised = (rate_mbps ** Vivace.EXPONENT
                     - Vivace.LATENCY_COEFF * rate_mbps * 0.05)
        assert penalised < flat

    def test_reacts_slower_than_an_rtt(self):
        # Vivace only changes its base rate once per three monitor intervals,
        # i.e. not within a single RTT: this is what makes it look inelastic
        # to 5 Hz pulses.
        vivace = Vivace()
        flow = Flow(cc=vivace, prop_rtt=0.05)
        flow.flow_id = 0
        flow.start(0.0)
        vivace.measurement.on_ack(0.0, MSS_BYTES, 0.05, 0.0)
        base_before = vivace._base_rate
        vivace.on_control_tick(0.01, 0.01)
        vivace.on_control_tick(0.06, 0.01)
        assert vivace._base_rate == pytest.approx(base_before)


class TestReferenceSenders:
    def test_constant_rate_is_inelastic(self):
        # A constant-rate sender is a NullCC whose rate is set: paced, no
        # window, and inelastic.
        constant = NullCC()
        constant.rate = 1e6
        assert constant.elastic is False
        assert constant.pacing_rate == 1e6
        assert constant.cwnd_bytes is None

    def test_constant_rate_invalid(self):
        # The drivers' constant-rate stream is a PacedSource.
        with pytest.raises(ValueError, match="rate must be positive"):
            PacedSource(0)

    def test_fixed_window_is_elastic(self):
        fw = FixedWindow(window_segments=50)
        assert fw.elastic is True
        assert fw.cwnd == pytest.approx(50 * MSS_BYTES)

    def test_null_cc_imposes_no_limits(self):
        null = NullCC()
        assert null.cwnd_bytes is None
        assert null.pacing_rate is None
        assert null.elastic is False

    def test_app_limited_flow_stays_below_fair_share(self):
        """Table 1's app-limited row: Cubic behind a paced application."""
        network = make_network(link_mbps=24, buffer_ms=100, dt=0.004)
        mu = mbps_to_bytes_per_sec(24)
        network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05,
                              source=PacedSource(0.2 * mu), name="applim"))
        network.run(10.0)
        assert network.recorder.mean_throughput("applim", start=3.0) == \
            pytest.approx(0.2 * 24, rel=0.15)
