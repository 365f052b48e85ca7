"""BBR congestion control (Cardwell et al., 2016), simplified.

BBR estimates the bottleneck bandwidth (the windowed maximum delivery rate)
and the round-trip propagation delay (the windowed minimum RTT), paces at
the bandwidth estimate, and caps the data in flight at twice the estimated
bandwidth-delay product.  A gain cycle periodically probes for more
bandwidth and then drains the induced queue.

The paper uses BBR both as a comparison scheme and as cross traffic
(Appendix C): with deep buffers BBR's inflight cap makes it ACK-clocked and
Nimbus classifies it as elastic; with shallow buffers it is rate-driven and
classified inelastic.  This implementation keeps the state machine
(STARTUP → DRAIN → PROBE_BW with an eight-phase gain cycle, plus PROBE_RTT)
at the level of detail those behaviours require.
"""

from __future__ import annotations

import math
from collections import deque

from ..simulator.units import MSS_BYTES
from .base import CongestionControl

STARTUP = "startup"
DRAIN = "drain"
PROBE_BW = "probe_bw"
PROBE_RTT = "probe_rtt"

#: Pacing gains for the PROBE_BW cycle, one phase per round trip.
GAIN_CYCLE = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
#: 2 / ln(2) — the startup gain that doubles the sending rate every RTT.
STARTUP_GAIN = 2.885
#: Bandwidth filter length in round trips; RTprop filter length and the
#: interval between PROBE_RTT episodes in seconds (BBR v1's constants).
BW_WINDOW_RTTS = 10
RTPROP_WINDOW = 10.0
PROBE_RTT_INTERVAL = 10.0


class Bbr(CongestionControl):
    """Model-based BBR: pace at max-delivery-rate, cap inflight at 2 BDP."""

    name = "bbr"
    elastic = True

    def __init__(self) -> None:
        super().__init__()
        self.state = STARTUP
        self._bw_samples: deque[tuple[float, float]] = deque()
        self._rtt_samples: deque[tuple[float, float]] = deque()
        self._full_bw = 0.0
        self._full_bw_rounds = 0
        self._cycle_index = 0
        self._cycle_start = 0.0
        self._last_probe_rtt = 0.0
        self._probe_rtt_until = 0.0
        self._round_start = 0.0

    # ------------------------------------------------------------------ #
    # Model updates
    # ------------------------------------------------------------------ #
    def on_ack(self, ack, now: float) -> None:
        # Per-ACK work is kept O(1): the windowed max/min model is refreshed
        # on the 10 ms control tick instead, which is plenty for BBR's
        # multi-RTT dynamics.
        pass

    def on_loss(self, lost_bytes: float, now: float) -> None:
        # BBR v1 largely ignores individual losses; the inflight cap and the
        # gain cycle bound its aggressiveness.
        pass

    def on_control_tick(self, now: float, dt: float) -> None:
        m = self.measurement
        rtt = m.rtt
        if rtt <= 0:
            return
        delivery_rate = m.delivery_rate(now)
        if delivery_rate > 0:
            self._bw_samples.append((now, delivery_rate))
        self._rtt_samples.append((now, rtt))
        self._prune(now, rtt)
        self._advance_state(now, rtt)
        self._apply_model(now)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    @property
    def btl_bw(self) -> float:
        """Bottleneck bandwidth estimate in bytes/s."""
        if not self._bw_samples:
            return 0.0
        return max(bw for _, bw in self._bw_samples)

    @property
    def rt_prop(self) -> float:
        """Round-trip propagation delay estimate in seconds."""
        if not self._rtt_samples:
            return self.measurement.base_rtt()
        return min(r for _, r in self._rtt_samples)

    def _prune(self, now: float, rtt: float) -> None:
        bw_horizon = BW_WINDOW_RTTS * max(rtt, 1e-3)
        while self._bw_samples and self._bw_samples[0][0] < now - bw_horizon:
            self._bw_samples.popleft()
        while (self._rtt_samples
               and self._rtt_samples[0][0] < now - RTPROP_WINDOW):
            self._rtt_samples.popleft()

    def _advance_state(self, now: float, rtt: float) -> None:
        if self.state == STARTUP:
            # Exit when the bandwidth estimate stops growing by 25% per round.
            if now - self._round_start >= rtt:
                self._round_start = now
                if self.btl_bw > self._full_bw * 1.25:
                    self._full_bw = self.btl_bw
                    self._full_bw_rounds = 0
                else:
                    self._full_bw_rounds += 1
                    if self._full_bw_rounds >= 3:
                        self.state = DRAIN
        elif self.state == DRAIN:
            # Drain until inflight falls to the estimated BDP.
            bdp = self.btl_bw * self.rt_prop
            if self.flow is not None and self.flow.inflight <= bdp:
                self.state = PROBE_BW
                self._cycle_index = 0
                self._cycle_start = now
        elif self.state == PROBE_BW:
            if now - self._cycle_start >= max(self.rt_prop, 1e-3):
                self._cycle_start = now
                self._cycle_index = (self._cycle_index + 1) % len(GAIN_CYCLE)
            if now - self._last_probe_rtt > PROBE_RTT_INTERVAL:
                self.state = PROBE_RTT
                self._probe_rtt_until = now + max(0.2, 2 * self.rt_prop)
        elif self.state == PROBE_RTT:
            if now >= self._probe_rtt_until:
                self._last_probe_rtt = now
                self.state = PROBE_BW
                self._cycle_start = now

    def _apply_model(self, now: float) -> None:
        bw = self.btl_bw
        rtprop = self.rt_prop
        if bw <= 0 or rtprop <= 0 or not math.isfinite(rtprop):
            return
        if self.state == STARTUP:
            pacing_gain = cwnd_gain = STARTUP_GAIN
        elif self.state == DRAIN:
            pacing_gain = 1.0 / STARTUP_GAIN
            cwnd_gain = STARTUP_GAIN
        elif self.state == PROBE_RTT:
            pacing_gain = 1.0
            cwnd_gain = 0.5
        else:
            pacing_gain = GAIN_CYCLE[self._cycle_index]
            cwnd_gain = 2.0
        self.rate = pacing_gain * bw
        self.cwnd = max(cwnd_gain * bw * rtprop, 4 * MSS_BYTES)
