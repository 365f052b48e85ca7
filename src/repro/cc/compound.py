"""Compound TCP (Tan et al., INFOCOM 2006), simplified.

Compound maintains two windows: a loss-based window that behaves like Reno
and a delay-based window that grows quickly while the path shows little
queueing and shrinks as queueing builds.  The transmission window is their
sum.  The paper uses Compound as an example of a scheme that blends the two
signals without mode switching — and therefore still incurs high queueing
delay against inelastic cross traffic (§5).
"""

from __future__ import annotations

import math

from ..simulator.units import MSS_BYTES
from .base import CongestionControl


class Compound(CongestionControl):
    """Compound TCP: cwnd = loss window + delay window."""

    name = "compound"
    elastic = True

    #: Queueing threshold (in segments) above which the delay window backs off.
    GAMMA = 30.0
    #: Delay-window growth parameters (alpha, k) from the Compound paper.
    ALPHA = 0.125
    K = 0.75
    #: Delay-window reduction factor when queueing is detected.
    ZETA = 0.1
    #: Loss-window multiplicative decrease.
    BETA = 0.5

    def __init__(self) -> None:
        super().__init__()
        self.lwnd = self.init_cwnd
        self.dwnd = 0.0
        self.ssthresh = math.inf
        self.cwnd = self.lwnd + self.dwnd
        self._last_loss_reaction = -math.inf
        self._last_dwnd_update = 0.0

    def on_ack(self, ack, now: float) -> None:
        m = self.measurement
        acked = ack.acked_bytes
        window = self.lwnd + self.dwnd

        if window < self.ssthresh:
            self.lwnd += acked
        else:
            self.lwnd += MSS_BYTES * acked / max(window, MSS_BYTES)

        rtt, base = m.rtt, m.base_rtt()
        if rtt > 0 and base > 0 and now - self._last_dwnd_update >= rtt:
            self._last_dwnd_update = now
            win_segments = window / MSS_BYTES
            expected = win_segments / base
            actual = win_segments / rtt
            diff = (expected - actual) * base
            if diff < self.GAMMA:
                increment = (self.ALPHA * win_segments ** self.K) - 1.0
                self.dwnd += max(increment, 0.0) * MSS_BYTES
            else:
                self.dwnd = max(self.dwnd - self.ZETA * diff * MSS_BYTES, 0.0)

        self.cwnd = max(self.lwnd + self.dwnd, self.min_cwnd)

    def on_loss(self, lost_bytes: float, now: float) -> None:
        rtt = self.measurement.rtt or self.measurement.base_rtt()
        if now - self._last_loss_reaction < rtt:
            return
        self._last_loss_reaction = now
        window = self.lwnd + self.dwnd
        self.lwnd = max(self.lwnd * self.BETA, self.min_cwnd)
        self.dwnd = max(window * (1 - self.BETA) - self.lwnd / 2.0, 0.0)
        self.ssthresh = max(self.lwnd, self.min_cwnd)
        self.cwnd = max(self.lwnd + self.dwnd, self.min_cwnd)

    def take_over(self, rate: float, rtt: float) -> None:
        """Leave slow start at the handed-over window."""
        super().take_over(rate, rtt)
        self.ssthresh = self.cwnd
