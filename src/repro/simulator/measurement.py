"""Windowed rate and RTT measurements made at the sender.

The paper's CCP implementation reports the sending rate ``S``, the delivery
rate ``R``, the RTT, and losses to the user-space algorithm every 10 ms,
measured over one window (RTT) of packets (§3.1, §4.2).  This module
provides the equivalent measurement machinery for simulated flows:
timestamped byte counters that can be queried over an arbitrary trailing
window.  Samples are appended in time order, so a window is a suffix of its
store, found by bisection on the timestamps.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from itertools import islice
from operator import itemgetter
from typing import Deque, List, Sequence, Tuple

_TIME = itemgetter(0)
_BYTES = itemgetter(1)
_ACKED_BYTES = itemgetter(2)


def _newer_than(samples: Sequence[tuple], cutoff: float) -> List[tuple]:
    """The samples whose timestamp (field 0) is ``> cutoff``, oldest first.

    Timestamps are appended in non-decreasing order, so those samples are a
    suffix of the store, found by bisection and copied from the newest end:
    a query costs what the window holds, not what the horizon retains.  The
    suffix is handed back in its original order so that callers reduce it
    exactly as a full scan would — a running sum would drift from that in
    the last ulp.
    """
    count = len(samples) - bisect_right(samples, cutoff, key=_TIME)
    newest_first = list(islice(reversed(samples), count))
    newest_first.reverse()
    return newest_first


class WindowedCounter:
    """Accumulates (timestamp, bytes) samples and sums them over a window.

    Slotted: every flow owns three of these and ``add`` runs on every send,
    delivery, and loss, so the per-instance ``__dict__`` was measurable
    overhead.
    """

    __slots__ = ("horizon", "_samples", "_total")

    def __init__(self, horizon: float = 10.0) -> None:
        #: Oldest age (seconds) of samples retained; anything older is pruned.
        self.horizon = horizon
        self._samples: Deque[Tuple[float, float]] = deque()
        self._total = 0.0

    def add(self, now: float, nbytes: float) -> None:
        """Record ``nbytes`` at time ``now``."""
        if nbytes <= 0:
            return
        samples = self._samples
        samples.append((now, nbytes))
        self._total += nbytes
        cutoff = now - self.horizon
        while samples and samples[0][0] < cutoff:
            samples.popleft()

    def sum_over(self, now: float, window: float) -> float:
        """Total bytes recorded in the trailing ``window`` seconds."""
        self._prune(now)
        return sum(map(_BYTES, _newer_than(self._samples, now - window)))

    def rate_over(self, now: float, window: float) -> float:
        """Average rate (bytes/s) over the trailing ``window`` seconds."""
        if window <= 0:
            return 0.0
        return self.sum_over(now, window) / window

    @property
    def total(self) -> float:
        """All bytes ever recorded (not pruned)."""
        return self._total

    def _prune(self, now: float) -> None:
        cutoff = now - self.horizon
        samples = self._samples
        while samples and samples[0][0] < cutoff:
            samples.popleft()


class FlowMeasurement:
    """Per-flow measurement state exposed to congestion-control algorithms.

    Attributes:
        rtt: Most recent round-trip time sample (seconds).
        min_rtt: Minimum RTT observed so far (the propagation delay estimate).
        queue_delay: Most recent per-packet queueing delay reported by an ACK.
        max_delivery_rate: Largest delivery rate observed (BBR-style
            bottleneck bandwidth estimate).
    """

    __slots__ = ("sent", "delivered", "lost", "rtt", "min_rtt",
                 "queue_delay", "max_delivery_rate", "_acked", "_acked_horizon")

    def __init__(self, horizon: float = 10.0) -> None:
        self.sent = WindowedCounter(horizon)
        self.delivered = WindowedCounter(horizon)
        self.lost = WindowedCounter(horizon)
        self.rtt: float = 0.0
        self.min_rtt: float = math.inf
        self.queue_delay: float = 0.0
        self.max_delivery_rate: float = 0.0
        #: Acked-packet records (ack_time, sent_time, bytes) used to measure
        #: S and R over the *same* packets, as Eq. (2) of the paper requires.
        self._acked: Deque[Tuple[float, float, float]] = deque()
        self._acked_horizon = 2.0

    # ------------------------------------------------------------------ #
    # Updates from the flow
    # ------------------------------------------------------------------ #
    def on_send(self, now: float, nbytes: float) -> None:
        self.sent.add(now, nbytes)

    def on_ack(self, now: float, nbytes: float, rtt: float,
               queue_delay: float) -> None:
        self.delivered.add(now, nbytes)
        self.rtt = rtt
        self.queue_delay = queue_delay
        if rtt > 0 and rtt < self.min_rtt:
            self.min_rtt = rtt
        acked = self._acked
        acked.append((now, now - rtt, nbytes))
        cutoff = now - self._acked_horizon
        while acked and acked[0][0] < cutoff:
            acked.popleft()

    def on_loss(self, now: float, nbytes: float) -> None:
        self.lost.add(now, nbytes)

    def drop_windows(self) -> None:
        """Release the sample stores of a flow that has finished.

        Totals and the scalar readings stay, and every windowed query still
        answers (with zero); an empty deque alone holds ~0.6 KB, so the four
        stores are swapped for the shared empty tuple, not cleared.
        """
        self.sent._samples = self.delivered._samples = ()
        self.lost._samples = self._acked = ()

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    def measurement_window(self) -> float:
        """Window used for S and R estimates: one RTT, as in the paper."""
        if self.rtt > 0:
            return self.rtt
        if math.isfinite(self.min_rtt) and self.min_rtt > 0:
            return self.min_rtt
        return 0.05

    def send_rate(self, now: float, window: float | None = None) -> float:
        """S(t): bytes/s sent over the trailing window (default one RTT)."""
        window = window if window is not None else self.measurement_window()
        return self.sent.rate_over(now, window)

    def delivery_rate(self, now: float, window: float | None = None) -> float:
        """R(t): bytes/s delivered over the trailing window (default one RTT)."""
        window = window if window is not None else self.measurement_window()
        rate = self.delivered.rate_over(now, window)
        if rate > self.max_delivery_rate:
            self.max_delivery_rate = rate
        return rate

    def loss_rate(self, now: float, window: float | None = None) -> float:
        """Fraction of sent bytes reported lost over the trailing window."""
        window = window if window is not None else self.measurement_window()
        sent = self.sent.sum_over(now, window)
        if sent <= 0:
            return 0.0
        return min(1.0, self.lost.sum_over(now, window) / sent)

    def paired_rates(self, now: float) -> tuple[float, float]:
        """(S, R) measured over the *same* packets, per Eq. (2) of the paper.

        The packets considered are those acknowledged within the trailing
        :meth:`measurement_window` (one RTT).  S divides their total size by
        the span of their send times; R divides it by the span of their ACK
        arrival times.  Measuring both over one packet set is what makes the
        cross-traffic estimate insensitive to the sender's own pulses.
        """
        window = self.measurement_window()
        records = _newer_than(self._acked, now - window)
        if len(records) < 3:
            return self.send_rate(now, window), self.delivery_rate(now, window)
        total = sum(map(_ACKED_BYTES, records))
        # Exclude the first record's bytes: n packets span n-1 gaps.
        total_gap = total - records[0][2]
        ack_span = records[-1][0] - records[0][0]
        sent_span = records[-1][1] - records[0][1]
        if ack_span <= 0 or sent_span <= 0 or total_gap <= 0:
            return self.send_rate(now, window), self.delivery_rate(now, window)
        send_rate = total_gap / sent_span
        delivery_rate = total_gap / ack_span
        if delivery_rate > self.max_delivery_rate:
            self.max_delivery_rate = delivery_rate
        return send_rate, delivery_rate

    def base_rtt(self) -> float:
        """Best available estimate of the propagation RTT (seconds)."""
        if math.isfinite(self.min_rtt):
            return self.min_rtt
        return self.rtt if self.rtt > 0 else 0.05
