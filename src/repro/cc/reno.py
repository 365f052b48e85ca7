"""TCP NewReno congestion control.

The classic loss-based AIMD algorithm: slow start until the slow-start
threshold, additive increase of one segment per round-trip afterwards, and a
multiplicative decrease of one half on a loss event.  NewReno is one of the
paper's canonical examples of *elastic*, ACK-clocked cross traffic and is
also offered as a TCP-competitive mode for Nimbus (§4.1).
"""

from __future__ import annotations

import math

from ..simulator.units import MSS_BYTES
from .base import CongestionControl


class NewReno(CongestionControl):
    """TCP NewReno: slow start + AIMD congestion avoidance."""

    name = "newreno"
    elastic = True

    def __init__(self) -> None:
        super().__init__()
        self.ssthresh = math.inf
        self._last_loss_reaction = -math.inf

    def on_ack(self, ack, now: float) -> None:
        acked = ack.acked_bytes
        if self.cwnd < self.ssthresh:
            # Slow start: grow the window by the amount acknowledged.
            self.cwnd += acked
        else:
            # Congestion avoidance: one MSS per window's worth of ACKs.
            self.cwnd += MSS_BYTES * acked / self.cwnd

    def on_loss(self, lost_bytes: float, now: float) -> None:
        rtt = self.measurement.rtt or self.measurement.base_rtt()
        # React at most once per round-trip: multiple drop notifications
        # within an RTT correspond to a single congestion event.
        if now - self._last_loss_reaction < rtt:
            return
        self._last_loss_reaction = now
        self.ssthresh = max(self.cwnd / 2.0, self.min_cwnd)
        self.cwnd = max(self.ssthresh, self.min_cwnd)

    def take_over(self, rate: float, rtt: float) -> None:
        """Carry on in congestion avoidance from the handed-over window."""
        super().take_over(rate, rtt)
        self.ssthresh = self.cwnd
