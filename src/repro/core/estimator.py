"""Cross-traffic rate estimation (§3.1 of the paper).

The sender estimates the total rate of cross traffic sharing its bottleneck
from nothing but its own send rate ``S(t)``, its delivery rate ``R(t)``, and
the bottleneck link rate ``mu``::

    z_hat(t) = mu * S(t) / R(t) - S(t)            (Eq. 1)

As long as the bottleneck queue is non-empty and the router serves traffic
FIFO, the fraction of the link the flow receives equals its share of the
arriving traffic, which is what the formula inverts.

:class:`CrossTrafficEstimator` additionally keeps a regularly sampled time
series of the estimates — the signal whose FFT the elasticity detector
inspects — together with the matched samples of ``S`` and ``R`` needed by
the pulser-conflict check of §6.  The four series are the rows of one
preallocated array, so reading the trailing FFT window at every sample is a
slice copy, not a walk over Python floats.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..simulator.measurement import FlowMeasurement


def estimate_cross_traffic(mu: float, send_rate: float,
                           delivery_rate: float) -> float:
    """Eq. (1): estimate the cross-traffic rate from S, R, and mu.

    Returns 0 when the inputs are degenerate (no deliveries yet).
    The result is clamped to the physically meaningful range [0, mu].
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if send_rate <= 0 or delivery_rate <= 0:
        return 0.0
    z = mu * send_rate / delivery_rate - send_rate
    return float(min(max(z, 0.0), mu))


class CrossTrafficEstimator:
    """Sampled cross-traffic rate estimate for one flow.

    Args:
        mu: Bottleneck link rate in bytes per second.
        sample_interval: Nominal spacing of the recorded time series (10 ms
            default, matching the paper's CCP reporting interval): it sizes
            the history and turns a duration into a sample count.  The
            caller spaces the samples.
        history: How many seconds of samples to retain (at least the FFT
            duration).  Detection reads the last 5 s; the 30 s default is
            for the whole-series payloads of Figs. 4 and 22.
    """

    def __init__(self, mu: float, sample_interval: float = 0.01,
                 history: float = 30.0) -> None:
        if mu <= 0:
            raise ValueError("mu must be positive")
        if sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        self.mu = mu
        self.sample_interval = sample_interval
        self.maxlen = max(2, int(round(history / sample_interval)))
        #: Rows z, S, R, t; columns ``_start:_end`` hold the newest
        #: ``maxlen`` samples, oldest first.  Twice ``maxlen`` wide, so the
        #: retained samples are moved to the front only once per ``maxlen``
        #: appends.
        self._rows = np.empty((4, 2 * self.maxlen))
        self._start = self._end = 0

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def maybe_sample(self, now: float, measurement: FlowMeasurement) -> float:
        """Record one sample at ``now`` and return its z estimate.

        The caller spaces the calls: Nimbus samples once per control tick,
        and the endpoint's gate holds those at least ``sample_interval``
        apart.
        S and R are measured over the measurement's own window (one RTT).
        """
        s, r = measurement.paired_rates(now)
        z = estimate_cross_traffic(self.mu, s, r)
        rows, end = self._rows, self._end
        if end == rows.shape[1]:
            rows[:, :self.maxlen] = rows[:, self.maxlen:]
            self._start, end = 0, self.maxlen
        rows[0, end] = z
        rows[1, end] = s
        rows[2, end] = r
        rows[3, end] = now
        self._end = end = end + 1
        if end - self._start > self.maxlen:
            self._start = end - self.maxlen
        return z

    # ------------------------------------------------------------------ #
    # Series access
    # ------------------------------------------------------------------ #
    def z_series(self, duration: Optional[float] = None) -> np.ndarray:
        """The most recent ``duration`` seconds of z samples (all if None)."""
        return self._tail(0, duration)

    def s_series(self, duration: Optional[float] = None) -> np.ndarray:
        """The matched send-rate samples."""
        return self._tail(1, duration)

    def r_series(self, duration: Optional[float] = None) -> np.ndarray:
        """The matched delivery-rate samples."""
        return self._tail(2, duration)

    def times(self, duration: Optional[float] = None) -> np.ndarray:
        """Timestamps of the retained samples."""
        return self._tail(3, duration)

    def newest_z(self, now: float) -> float:
        """The newest z sample, or 0.0 before the first (a ``z_provider``
        for BasicDelay; ``now`` is unused)."""
        end = self._end
        return float(self._rows[0, end - 1]) if end > self._start else 0.0

    def sample_count(self, duration: float) -> int:
        """Number of samples spanning ``duration`` seconds."""
        return int(round(duration / self.sample_interval))

    def __len__(self) -> int:
        return self._end - self._start

    def _tail(self, row: int, duration: Optional[float]) -> np.ndarray:
        n = self._end - self._start
        if duration is not None:
            n = min(n, self.sample_count(duration))
        # An owned copy of the newest n columns: callers may write to it.
        return self._rows[row, self._end - n:self._end].copy()
