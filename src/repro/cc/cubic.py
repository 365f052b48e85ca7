"""TCP Cubic congestion control (Ha, Rhee, Xu 2008).

Cubic is the paper's reference loss-based, buffer-filling protocol: it is
the dominant elastic cross traffic in the experiments and the default
TCP-competitive mode inside Nimbus.  The implementation follows the
published algorithm: a cubic window-growth function anchored at the window
size before the last loss, plus the TCP-friendly (Reno-tracking) region.
"""

from __future__ import annotations

import math

from ..simulator.units import MSS_BYTES
from .base import CongestionControl


class Cubic(CongestionControl):
    """TCP Cubic with fast convergence and the TCP-friendly region."""

    name = "cubic"
    elastic = True

    #: Cubic scaling constant (segments / s^3), per the paper and Linux.
    C = 0.4
    #: Multiplicative decrease factor.
    BETA = 0.7

    def __init__(self, fast_convergence: bool = True) -> None:
        super().__init__()
        self.ssthresh = math.inf
        self.fast_convergence = fast_convergence

        self.w_max = 0.0          # window (bytes) just before the last loss
        self._epoch_start: float | None = None
        self._k = 0.0             # time offset of the cubic origin (seconds)
        self._w_est = 0.0         # Reno-friendly window estimate (bytes)
        self._last_loss_reaction = -math.inf

    # ------------------------------------------------------------------ #
    # ACK processing
    # ------------------------------------------------------------------ #
    def on_ack(self, ack, now: float) -> None:
        acked = ack.acked_bytes
        if self.cwnd < self.ssthresh:
            self.cwnd += acked
            return

        if self._epoch_start is None:
            self._start_epoch(now)

        target = self._cubic_window(now + self.measurement.base_rtt())
        if target > self.cwnd:
            # Grow towards the cubic target over roughly one RTT.
            self.cwnd += (target - self.cwnd) * acked / self.cwnd
        else:
            # Very slow growth when at/above the target (as in Linux).
            self.cwnd += 0.01 * MSS_BYTES * acked / self.cwnd

        # TCP-friendly region: never be slower than an equivalent Reno flow.
        self._w_est += (3.0 * (1.0 - self.BETA) / (1.0 + self.BETA)
                        * MSS_BYTES * acked / self.cwnd)
        if self._w_est > self.cwnd:
            self.cwnd = self._w_est

    # ------------------------------------------------------------------ #
    # Loss processing
    # ------------------------------------------------------------------ #
    def on_loss(self, lost_bytes: float, now: float) -> None:
        rtt = self.measurement.rtt or self.measurement.base_rtt()
        if now - self._last_loss_reaction < rtt:
            return
        self._last_loss_reaction = now

        if self.fast_convergence and self.cwnd < self.w_max:
            self.w_max = self.cwnd * (1.0 + self.BETA) / 2.0
        else:
            self.w_max = self.cwnd
        self.cwnd = max(self.cwnd * self.BETA, self.min_cwnd)
        self.ssthresh = self.cwnd
        self._epoch_start = None

    def take_over(self, rate: float, rtt: float) -> None:
        """Start a fresh cubic epoch anchored at the handed-over window."""
        super().take_over(rate, rtt)
        self.ssthresh = self.w_max = self.cwnd
        self._epoch_start = None

    # ------------------------------------------------------------------ #
    # Cubic window function
    # ------------------------------------------------------------------ #
    def _start_epoch(self, now: float) -> None:
        self._epoch_start = now
        if self.cwnd < self.w_max:
            self._k = ((self.w_max - self.cwnd)
                       / (self.C * MSS_BYTES)) ** (1.0 / 3.0)
        else:
            self._k = 0.0
            self.w_max = self.cwnd
        self._w_est = self.cwnd

    def _cubic_window(self, at_time: float) -> float:
        """W(t) = C (t - K)^3 + W_max, in bytes."""
        assert self._epoch_start is not None
        t = at_time - self._epoch_start
        return (self.C * MSS_BYTES * (t - self._k) ** 3) + self.w_max
