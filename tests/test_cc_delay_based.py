"""Delay-based algorithms: Vegas, Copa, BasicDelay."""

import pytest

from repro.cc import BasicDelay, Copa, Vegas
from repro.cc.copa import MODE_COMPETITIVE, MODE_DELAY
from repro.simulator.endpoint import Flow
from repro.simulator.packet import Ack
from repro.simulator.units import MSS_BYTES, mbps_to_bytes_per_sec


def attach(cc):
    flow = Flow(cc=cc, prop_rtt=0.05)
    flow.flow_id = 0
    flow.start(0.0)
    return flow


def feed(cc, n, rtt=0.05, qdelay=0.0, start=0.0, nbytes=MSS_BYTES,
         control=False):
    now = start
    for _ in range(n):
        now += 0.01
        cc.measurement.on_ack(now, nbytes, rtt + qdelay, qdelay)
        cc.on_ack(Ack(flow_id=0, acked_bytes=nbytes,
                      sent_time=now - rtt - qdelay, queue_delay=qdelay,
                      delivered_time=now), now)
        if control:
            cc.on_control_tick(now, 0.01)
    return now


class TestVegas:
    def test_grows_when_no_queueing(self):
        vegas = Vegas()
        attach(vegas)
        vegas._in_slow_start = False
        before = vegas.cwnd
        feed(vegas, 100, qdelay=0.0)
        assert vegas.cwnd > before

    def test_shrinks_with_queueing(self):
        vegas = Vegas(alpha=2, beta=4)
        attach(vegas)
        vegas._in_slow_start = False
        vegas.cwnd = 60 * MSS_BYTES
        # Establish the base RTT first, then present heavy queueing.
        vegas.measurement.on_ack(0.0, MSS_BYTES, 0.05, 0.0)
        before = vegas.cwnd
        feed(vegas, 100, qdelay=0.05, start=0.01)
        assert vegas.cwnd < before

    def test_holds_within_band(self):
        vegas = Vegas(alpha=2, beta=4)
        attach(vegas)
        vegas._in_slow_start = False
        vegas.measurement.on_ack(0.0, MSS_BYTES, 0.05, 0.0)
        # 3 segments queued at cwnd=30, rtt chosen accordingly: stays put.
        vegas.cwnd = 30 * MSS_BYTES
        base, queued_segments = 0.05, 3
        rtt = base * 30 / (30 - queued_segments)
        before = vegas.cwnd
        feed(vegas, 50, rtt=base, qdelay=rtt - base, start=0.01)
        assert vegas.cwnd == pytest.approx(before, abs=2 * MSS_BYTES)

    def test_loss_halves(self):
        vegas = Vegas()
        attach(vegas)
        vegas.cwnd = 40 * MSS_BYTES
        vegas.on_loss(MSS_BYTES, 1.0)
        assert vegas.cwnd == pytest.approx(20 * MSS_BYTES)

    def test_invalid_band(self):
        with pytest.raises(ValueError):
            Vegas(alpha=5, beta=4)


class TestCopa:
    def test_starts_in_delay_mode(self):
        assert Copa().mode == MODE_DELAY

    def test_tracks_small_queue_target(self):
        # Default mode only (no switching): with a persistent large queueing
        # delay the target rate is tiny, so cwnd must come down after
        # slow-start exits.
        copa = Copa(mode_switching=False)
        attach(copa)
        copa.measurement.on_ack(0.0, MSS_BYTES, 0.05, 0.0)  # base RTT
        feed(copa, 300, qdelay=0.08, start=0.01, control=True)
        assert copa.cwnd < 100 * MSS_BYTES

    def test_grows_when_queue_empty(self):
        copa = Copa()
        attach(copa)
        before = copa.cwnd
        feed(copa, 50, qdelay=0.0005, control=True)
        assert copa.cwnd > before

    def test_switches_to_competitive_when_queue_never_drains(self):
        copa = Copa()
        attach(copa)
        copa.measurement.on_ack(0.0, MSS_BYTES, 0.05, 0.0)  # base RTT
        feed(copa, 400, qdelay=0.06, start=0.01, control=True)
        assert copa.mode == MODE_COMPETITIVE

    def test_stays_default_when_queue_drains(self):
        copa = Copa()
        attach(copa)
        now = 0.0
        # Alternate: queueing for a while, then a near-empty observation
        # every couple of RTTs, as Copa's own oscillation would produce.
        for cycle in range(30):
            now = feed(copa, 8, qdelay=0.02, start=now, control=True)
            now = feed(copa, 2, qdelay=0.0005, start=now, control=True)
        assert copa.mode == MODE_DELAY

    def test_mode_switching_disabled(self):
        copa = Copa(mode_switching=False)
        attach(copa)
        feed(copa, 400, qdelay=0.06, control=True)
        assert copa.mode == MODE_DELAY

    def test_velocity_resets_on_direction_change(self):
        copa = Copa()
        attach(copa)
        feed(copa, 200, qdelay=0.0005, control=True)
        assert copa._velocity >= 1.0
        feed(copa, 200, qdelay=0.08, start=10.0, control=True)
        assert copa._velocity <= copa._max_velocity


class TestBasicDelay:
    MU = mbps_to_bytes_per_sec(96)

    def test_requires_positive_mu(self):
        with pytest.raises(ValueError):
            BasicDelay(0)

    def test_rate_increases_with_spare_capacity(self):
        bd = BasicDelay(self.MU)
        attach(bd)
        bd.measurement.on_ack(0.0, MSS_BYTES, 0.05, 0.0)
        before = bd.rate
        # Little sending, no cross traffic, no queueing: plenty of spare.
        for i in range(20):
            t = i * 0.01
            bd.measurement.on_send(t, MSS_BYTES)
            bd.measurement.on_ack(t + 0.05, MSS_BYTES, 0.05, 0.0)
            bd.on_control_tick(t + 0.05, 0.01)
        assert bd.rate > before

    def test_rate_decreases_when_delay_exceeds_target(self):
        bd = BasicDelay(self.MU)
        attach(bd)
        bd.measurement.on_ack(0.0, MSS_BYTES, 0.05, 0.0)
        bd.rate = 0.9 * self.MU
        # Send at ~90% of the link while the queue sits at 60 ms > target and
        # cross traffic (from Eq. 1) uses the rest: the rate must come down.
        for i in range(200):
            t = 0.01 + i * 0.01
            bd.measurement.on_send(t, 0.9 * self.MU * 0.01)
            bd.measurement.on_ack(t + 0.11, 0.8 * self.MU * 0.01, 0.11, 0.06)
            bd.on_control_tick(t + 0.11, 0.01)
        assert bd.rate < 0.9 * self.MU

    def test_rate_clamped(self):
        bd = BasicDelay(self.MU)
        attach(bd)
        bd.measurement.on_ack(0.0, MSS_BYTES, 0.05, 0.0)
        bd.take_over(100 * self.MU, 0.05)
        assert bd.rate <= 1.2 * self.MU
        bd.take_over(0.0, 0.05)
        assert bd.rate >= bd.min_rate

    def test_rate_floor_follows_a_raised_mu(self):
        """Nimbus without a configured rate builds ``BasicDelay(1.0)`` and
        raises ``mu`` as it estimates the link: the floor must follow."""
        bd = BasicDelay(1.0)
        attach(bd)
        bd.mu = self.MU
        bd.take_over(0.0, 0.05)
        assert bd.rate == BasicDelay.MIN_RATE_FRACTION * self.MU
        bd.on_loss(MSS_BYTES, 1.0)
        assert bd.rate == BasicDelay.MIN_RATE_FRACTION * self.MU

    def test_external_z_provider_used(self):
        calls = []

        def provider(now):
            calls.append(now)
            return 0.5 * self.MU

        bd = BasicDelay(self.MU, z_provider=provider)
        attach(bd)
        bd.measurement.on_ack(0.0, MSS_BYTES, 0.05, 0.0)
        bd.on_control_tick(0.1, 0.01)
        assert calls, "z_provider should be consulted"

    def test_loss_backs_off(self):
        bd = BasicDelay(self.MU)
        attach(bd)
        bd.take_over(0.5 * self.MU, 0.05)
        before = bd.rate
        bd.on_loss(MSS_BYTES, 1.0)
        assert bd.rate < before
