"""TCP Vegas congestion control (Brakmo, O'Malley, Peterson 1994).

Vegas is a delay-based scheme: it estimates how many of its own packets are
queued at the bottleneck (the difference between the expected and actual
throughput, times the base RTT) and holds that number between ``alpha`` and
``beta`` segments.  The paper uses Vegas both as an example of a
delay-controlling algorithm that loses badly to loss-based cross traffic and
as an optional delay mode inside Nimbus.
"""

from __future__ import annotations

from ..simulator.units import MSS_BYTES
from .base import CongestionControl


class Vegas(CongestionControl):
    """TCP Vegas: keep between ``alpha`` and ``beta`` segments in the queue."""

    name = "vegas"
    elastic = True

    def __init__(self, alpha: float = 2.0, beta: float = 4.0) -> None:
        super().__init__()
        if alpha > beta:
            raise ValueError("alpha must not exceed beta")
        self.alpha = alpha
        self.beta = beta
        self._last_update = 0.0
        self._in_slow_start = True

    def on_ack(self, ack, now: float) -> None:
        m = self.measurement
        rtt = m.rtt
        base = m.base_rtt()
        if rtt <= 0 or base <= 0:
            return

        # Number of our own segments sitting in the bottleneck queue.
        expected = self.cwnd / base
        actual = self.cwnd / rtt
        diff_segments = (expected - actual) * base / MSS_BYTES

        if self._in_slow_start:
            if diff_segments > self.beta:
                self._in_slow_start = False
                self.cwnd = max(self.cwnd * 0.75, self.min_cwnd)
            else:
                self.cwnd += ack.acked_bytes
            return

        # Adjust at most once per RTT, by one segment, as Vegas specifies.
        if now - self._last_update < rtt:
            return
        self._last_update = now
        if diff_segments < self.alpha:
            self.cwnd += MSS_BYTES
        elif diff_segments > self.beta:
            self.cwnd = max(self.cwnd - MSS_BYTES, self.min_cwnd)

    def on_loss(self, lost_bytes: float, now: float) -> None:
        self._in_slow_start = False
        self.cwnd = max(self.cwnd / 2.0, self.min_cwnd)
