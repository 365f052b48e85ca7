"""Loss-based algorithms: NewReno, Cubic."""


import pytest

from repro.cc import Cubic, NewReno
from repro.simulator.endpoint import Flow
from repro.simulator.packet import Ack
from repro.simulator.units import MSS_BYTES


def attach(cc):
    """Attach an algorithm to a throwaway flow so measurements exist."""
    flow = Flow(cc=cc, prop_rtt=0.05)
    flow.flow_id = 0
    flow.start(0.0)
    return flow


def ack(nbytes=MSS_BYTES, sent=0.0, delivered=0.05, qdelay=0.0):
    return Ack(flow_id=0, acked_bytes=nbytes, sent_time=sent,
               queue_delay=qdelay, delivered_time=delivered)


def feed_acks(cc, n, rtt=0.05, qdelay=0.0, start=0.0, nbytes=MSS_BYTES):
    """Deliver n ACKs spaced 10 ms apart with the given RTT."""
    now = start
    for _ in range(n):
        now += 0.01
        cc.measurement.on_ack(now, nbytes, rtt + qdelay, qdelay)
        cc.on_ack(ack(nbytes, sent=now - rtt - qdelay), now)
    return now


class TestNewReno:
    def test_slow_start_doubles_per_rtt(self):
        reno = NewReno()
        attach(reno)
        start = reno.cwnd
        feed_acks(reno, 10)
        assert reno.cwnd == pytest.approx(start + 10 * MSS_BYTES)

    def test_congestion_avoidance_linear(self):
        reno = NewReno()
        attach(reno)
        reno.ssthresh = reno.cwnd  # force congestion avoidance
        window_packets = reno.cwnd / MSS_BYTES
        feed_acks(reno, int(window_packets))
        # One window of ACKs grows cwnd by about one MSS.
        assert reno.cwnd == pytest.approx(window_packets * MSS_BYTES + MSS_BYTES,
                                          rel=0.05)

    def test_loss_halves_window(self):
        reno = NewReno()
        attach(reno)
        feed_acks(reno, 20)
        before = reno.cwnd
        now = 1.0
        reno.on_loss(MSS_BYTES, now)
        assert reno.cwnd == pytest.approx(before / 2, rel=0.01)

    def test_loss_reaction_once_per_rtt(self):
        reno = NewReno()
        attach(reno)
        feed_acks(reno, 20)
        reno.on_loss(MSS_BYTES, 1.0)
        after_first = reno.cwnd
        reno.on_loss(MSS_BYTES, 1.01)
        assert reno.cwnd == pytest.approx(after_first)

    def test_window_floor(self):
        reno = NewReno()
        attach(reno)
        for i in range(50):
            reno.on_loss(MSS_BYTES, i * 1.0)
        assert reno.cwnd >= 2 * MSS_BYTES


class TestCubic:
    def test_slow_start(self):
        cubic = Cubic()
        attach(cubic)
        start = cubic.cwnd
        feed_acks(cubic, 5)
        assert cubic.cwnd == pytest.approx(start + 5 * MSS_BYTES)

    def test_loss_applies_beta(self):
        cubic = Cubic()
        attach(cubic)
        feed_acks(cubic, 30)
        before = cubic.cwnd
        cubic.on_loss(MSS_BYTES, 1.0)
        assert cubic.cwnd == pytest.approx(before * Cubic.BETA, rel=0.01)

    def test_recovers_towards_wmax(self):
        cubic = Cubic()
        attach(cubic)
        feed_acks(cubic, 40)
        w_before_loss = cubic.cwnd
        cubic.on_loss(MSS_BYTES, 1.0)
        feed_acks(cubic, 600, start=1.0)
        # After plenty of ACK time cubic should have grown back toward w_max.
        assert cubic.cwnd > w_before_loss * 0.85

    def test_concave_then_convex_growth(self):
        cubic = Cubic()
        attach(cubic)
        feed_acks(cubic, 40)
        cubic.on_loss(MSS_BYTES, 1.0)
        now = feed_acks(cubic, 100, start=1.0)
        early_growth = cubic.cwnd
        feed_acks(cubic, 400, start=now)
        late = cubic.cwnd
        assert late >= early_growth

    def test_fast_convergence_lowers_wmax(self):
        cubic = Cubic(fast_convergence=True)
        attach(cubic)
        feed_acks(cubic, 40)
        cubic.on_loss(MSS_BYTES, 1.0)
        first_wmax = cubic.w_max
        cubic.on_loss(MSS_BYTES, 2.0)
        assert cubic.w_max <= first_wmax

    def test_loss_reaction_once_per_rtt(self):
        cubic = Cubic()
        attach(cubic)
        feed_acks(cubic, 30)
        cubic.on_loss(MSS_BYTES, 1.0)
        after = cubic.cwnd
        cubic.on_loss(MSS_BYTES, 1.02)
        assert cubic.cwnd == pytest.approx(after)

