"""Windowed rate and RTT measurements made at the sender.

The paper's CCP implementation reports the sending rate ``S``, the delivery
rate ``R``, the RTT, and losses to the user-space algorithm every 10 ms,
measured over one window (RTT) of packets (§3.1, §4.2).  This module
provides the equivalent measurement machinery for simulated flows:
timestamped byte counters that can be queried over an arbitrary trailing
window.

Every per-sample series is a set of flat ``array('d')`` columns, one per
field, plus a head index: the samples from the head on are the ones
retained.  A sample costs 8 bytes per field, not a boxed tuple of boxed
floats.  Samples are appended in time order, so pruning moves the head by
bisection on the timestamp column, and a window is the suffix from a
second bisection.  Appending prunes only every :data:`_PRUNE_EVERY`
samples; a query first prunes up to what pruning at every append would
have dropped, so every reading is the one an eagerly pruned store gives.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right

#: Appending prunes a store once per this many samples (a bisection per
#: append would cost more than the append), so between prunes a store
#: holds at most this many samples more than its last prune left.
_PRUNE_EVERY = 64


def _pruned(columns: tuple, head: int, cutoff: float) -> int:
    """The head past every sample stamped before ``cutoff``.

    ``columns[0]`` holds the timestamps.  Once the head passes half their
    length the columns are compacted in place and the head is 0 again, so
    a column holds at most twice what it retains.
    """
    times = columns[0]
    head = bisect_left(times, cutoff, head)
    if head > len(times) >> 1:
        for column in columns:
            del column[:head]
        head = 0
    return head


class WindowedCounter:
    """Accumulates (timestamp, bytes) samples and sums them over a window.

    The samples are two columns, ``_times`` and ``_bytes``, of which the
    entries from ``_head`` on are retained.  Slotted: every flow owns three
    of these and ``add`` runs on every send, delivery, and loss.
    """

    __slots__ = ("horizon", "_times", "_bytes", "_head", "_total")

    def __init__(self, horizon: float = 10.0) -> None:
        #: Oldest age (seconds) of samples retained; anything older is pruned.
        self.horizon = horizon
        self._times = array("d")
        self._bytes = array("d")
        self._head = 0
        self._total = 0.0

    def add(self, now: float, nbytes: float) -> None:
        """Record ``nbytes`` at time ``now``."""
        if nbytes <= 0:
            return
        times = self._times
        times.append(now)
        self._bytes.append(nbytes)
        self._total += nbytes
        if not len(times) % _PRUNE_EVERY:
            self._head = _pruned((times, self._bytes), self._head,
                                 now - self.horizon)

    def sum_over(self, now: float, window: float) -> float:
        """Total bytes recorded in the trailing ``window`` seconds."""
        times = self._times
        if times:
            # Drop what pruning at every query and every append would
            # have: the samples older than the horizon of the later of
            # ``now`` and the newest sample.
            newest = times[-1]
            self._head = _pruned((times, self._bytes), self._head,
                                 (now if now > newest else newest)
                                 - self.horizon)
        start = bisect_right(times, now - window, self._head)
        # Summed oldest first, as a scan of every sample would: a running
        # total would drift from that in the last ulp.
        return sum(self._bytes[start:])

    def rate_over(self, now: float, window: float) -> float:
        """Average rate (bytes/s) over the trailing ``window`` seconds."""
        if window <= 0:
            return 0.0
        return self.sum_over(now, window) / window

    @property
    def total(self) -> float:
        """All bytes ever recorded (not pruned)."""
        return self._total


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
                 "queue_delay", "max_delivery_rate", "_ack_times",
                 "_sent_times", "_acked_bytes", "_acked_head",
                 "_acked_horizon")

    def __init__(self, horizon: float = 10.0) -> None:
        self.sent = WindowedCounter(horizon)
        self.delivered = WindowedCounter(horizon)
        self.lost = WindowedCounter(horizon)
        self.rtt: float = 0.0
        self.min_rtt: float = math.inf
        self.queue_delay: float = 0.0
        self.max_delivery_rate: float = 0.0
        #: Acked-packet records used to measure S and R over the *same*
        #: packets, as Eq. (2) of the paper requires: three columns (ACK
        #: time, send time, bytes), retained from ``_acked_head`` on.
        self._ack_times = array("d")
        self._sent_times = array("d")
        self._acked_bytes = array("d")
        self._acked_head = 0
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
        ack_times = self._ack_times
        ack_times.append(now)
        self._sent_times.append(now - rtt)
        self._acked_bytes.append(nbytes)
        if not len(ack_times) % _PRUNE_EVERY:
            self._prune_acked()

    def on_loss(self, now: float, nbytes: float) -> None:
        self.lost.add(now, nbytes)

    def drop_windows(self) -> None:
        """Release the windows of a flow that has finished.

        The three counters and the acked records go; the scalar readings
        (``rtt``, ``min_rtt``, ``queue_delay``, ``max_delivery_rate``)
        stay.  The byte totals the counters kept are the flow's ``stats``
        (the same sums, bit for bit), so a finished flow holds no windowed
        state and answers no windowed query.
        """
        self.sent = self.delivered = self.lost = None
        self._ack_times = self._sent_times = self._acked_bytes = None
        self._acked_head = 0

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
        ack_times = self._ack_times
        if ack_times:
            self._prune_acked()
        first = bisect_right(ack_times, now - window, self._acked_head)
        if len(ack_times) - first < 3:
            return self.send_rate(now, window), self.delivery_rate(now, window)
        nbytes = self._acked_bytes[first:]
        # Exclude the first record's bytes: n packets span n-1 gaps.
        total_gap = sum(nbytes) - nbytes[0]
        ack_span = ack_times[-1] - ack_times[first]
        sent_times = self._sent_times
        sent_span = sent_times[-1] - sent_times[first]
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

    def _prune_acked(self) -> None:
        """Drop the records acked more than ``_acked_horizon`` before the
        newest one, as pruning at every ACK would have."""
        ack_times = self._ack_times
        self._acked_head = _pruned(
            (ack_times, self._sent_times, self._acked_bytes),
            self._acked_head, ack_times[-1] - self._acked_horizon)
