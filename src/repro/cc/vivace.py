"""PCC-Vivace congestion control (Dong et al., NSDI 2018), simplified.

Vivace is a rate-based, online-learning scheme: it divides time into
monitor intervals (MIs), measures a utility combining throughput, the RTT
gradient, and loss during each MI, and performs gradient ascent on its
sending rate.  Because its reaction time spans several MIs (rather than one
RTT), the paper's detector classifies it as *inelastic* at the default 5 Hz
pulse frequency and as *elastic* at 2 Hz (Appendix F); this implementation
reproduces that timescale behaviour.
"""

from __future__ import annotations

from ..simulator.units import bytes_per_sec_to_mbps, mbps_to_bytes_per_sec
from .base import CongestionControl


class Vivace(CongestionControl):
    """PCC-Vivace: gradient ascent on a rate-based utility function.

    The utility of a monitor interval with sending rate ``x`` (Mbit/s),
    RTT gradient ``g`` (s/s) and loss rate ``L`` is::

        u(x) = x^0.9 - 900 * x * g - 11.35 * x * L

    matching the constants of the Vivace paper.
    """

    name = "pcc-vivace"
    elastic = True

    #: Exponent of the throughput reward term.
    EXPONENT = 0.9
    #: Weight of the latency-gradient penalty.
    LATENCY_COEFF = 900.0
    #: Weight of the loss penalty.
    LOSS_COEFF = 11.35
    #: Starting rate and the floor the rate never goes below (Mbit/s).
    INITIAL_RATE_MBPS = 4.0
    MIN_RATE_MBPS = 0.3
    #: Each probing pair sends at (1 +/- this) times the base rate.
    PROBE_FRACTION = 0.05
    #: Base rate step per decision and its amplified cap (Mbit/s).
    STEP_MBPS = 1.0
    MAX_STEP_MBPS = 12.0

    def __init__(self) -> None:
        super().__init__()
        self.cwnd = None
        self.rate = mbps_to_bytes_per_sec(self.INITIAL_RATE_MBPS)
        self.min_rate = mbps_to_bytes_per_sec(self.MIN_RATE_MBPS)

        self._base_rate = self.rate
        self._mi_start = 0.0
        self._mi_duration = 0.05
        self._phase = 0          # 0: probe up, 1: probe down, 2: decide/move
        self._utilities: list[float] = []
        self._rtt_at_mi_start = 0.0
        self._consecutive_same_direction = 0
        self._last_direction = 0

    # ------------------------------------------------------------------ #
    # Monitor-interval machinery
    # ------------------------------------------------------------------ #
    def on_control_tick(self, now: float, dt: float) -> None:
        m = self.measurement
        rtt = m.rtt if m.rtt > 0 else m.base_rtt()
        self._mi_duration = max(rtt, 0.02)
        if now - self._mi_start < self._mi_duration:
            return
        self._finish_mi(now)
        self._mi_start = now
        self._rtt_at_mi_start = rtt
        self._set_probe_rate()

    def on_ack(self, ack, now: float) -> None:
        # Vivace's decisions are made per monitor interval, not per ACK.
        pass

    def on_loss(self, lost_bytes: float, now: float) -> None:
        pass

    # ------------------------------------------------------------------ #
    # Utility and rate updates
    # ------------------------------------------------------------------ #
    def _finish_mi(self, now: float) -> None:
        m = self.measurement
        if self._rtt_at_mi_start <= 0:
            return
        rate_mbps = bytes_per_sec_to_mbps(self.rate)
        rtt_now = m.rtt if m.rtt > 0 else self._rtt_at_mi_start
        gradient = (rtt_now - self._rtt_at_mi_start) / max(self._mi_duration,
                                                           1e-3)
        loss = m.loss_rate(now, self._mi_duration)
        utility = (rate_mbps ** self.EXPONENT
                   - self.LATENCY_COEFF * rate_mbps * max(gradient, 0.0)
                   - self.LOSS_COEFF * rate_mbps * loss)
        self._utilities.append(utility)

        if self._phase == 0:
            self._phase = 1
        elif self._phase == 1:
            self._phase = 2
        else:
            self._decide()
            self._phase = 0
            self._utilities.clear()

    def _set_probe_rate(self) -> None:
        if self._phase == 0:
            self.rate = self._base_rate * (1.0 + self.PROBE_FRACTION)
        elif self._phase == 1:
            self.rate = self._base_rate * (1.0 - self.PROBE_FRACTION)
        else:
            self.rate = self._base_rate
        self.rate = max(self.rate, self.min_rate)

    def _decide(self) -> None:
        if len(self._utilities) < 2:
            return
        up_utility, down_utility = self._utilities[0], self._utilities[1]
        direction = 1 if up_utility >= down_utility else -1
        if direction == self._last_direction:
            self._consecutive_same_direction += 1
        else:
            self._consecutive_same_direction = 0
        self._last_direction = direction
        # Step size grows while the gradient keeps pointing the same way
        # (Vivace's confidence amplifier), bounded to avoid oscillation.
        step = self.STEP_MBPS * (1 + min(self._consecutive_same_direction, 10))
        step = min(step, self.MAX_STEP_MBPS)
        new_rate_mbps = bytes_per_sec_to_mbps(self._base_rate) + direction * step
        self._base_rate = max(mbps_to_bytes_per_sec(new_rate_mbps),
                              self.min_rate)
