"""Coordination of multiple Nimbus flows (§6 of the paper).

When several Nimbus flows share a bottleneck, exactly one of them — the
*pulser* — modulates its rate, while the others — *watchers* — infer the
pulser's mode from the FFT of their own receive rate and simply copy it.
There is no explicit communication: the roles are maintained by

* a randomized, decentralized *election*: a flow that sees no pulser in its
  receive-rate FFT becomes a pulser with probability proportional to its
  throughput share (Eq. 5), so that the expected number of new pulsers per
  FFT window is at most ``kappa``;
* an *EWMA filter* on each watcher's transmission rate that removes
  frequencies at or above the pulsing frequencies, so watcher traffic looks
  inelastic to the pulser;
* a *conflict check* on the pulser: if the cross traffic oscillates more at
  the pulse frequency than the pulser's own receive rate does, another
  pulser is probably active, and the flow demotes itself to watcher with a
  fixed probability.
"""

from __future__ import annotations

import math
import random
from typing import Optional

#: Role labels.
ROLE_PULSER = "pulser"
ROLE_WATCHER = "watcher"


class PulserElection:
    """Randomized pulser election (Eq. 5).

    Each decision interval ``tau`` (10 ms by default), a watcher that
    detects no pulser becomes one with probability::

        p_i = (kappa * tau / fft_duration) * (R_i / mu)

    Summed over all flows and all decisions in one FFT window, the expected
    number of new pulsers is at most ``kappa`` because the receive rates sum
    to at most ``mu``.
    """

    def __init__(self, kappa: float = 1.0, decision_interval: float = 0.01,
                 fft_duration: float = 5.0,
                 demotion_probability: float = 0.5,
                 rng: Optional[random.Random] = None) -> None:
        if kappa <= 0:
            raise ValueError("kappa must be positive")
        self.kappa = kappa
        self.decision_interval = decision_interval
        self.fft_duration = fft_duration
        self.demotion_probability = demotion_probability
        self.rng = rng if rng is not None else random.Random(0)

    def election_probability(self, receive_rate: float, mu: float) -> float:
        """Probability of becoming a pulser at one decision point."""
        if mu <= 0:
            return 0.0
        share = min(max(receive_rate / mu, 0.0), 1.0)
        return min(1.0, self.kappa * self.decision_interval
                   / self.fft_duration * share)

    def should_become_pulser(self, receive_rate: float, mu: float) -> bool:
        """Roll the election dice once.  The caller makes one decision per
        decision interval: a Nimbus watcher rolls at most once per control
        tick."""
        return self.rng.random() < self.election_probability(receive_rate, mu)

    def should_demote(self) -> bool:
        """Whether a pulser that detected a conflict steps down."""
        return self.rng.random() < self.demotion_probability


class WatcherRateFilter:
    """Low-pass (EWMA) filter applied to a watcher's transmission rate.

    The cut-off is placed at the lower of the two agreed pulsing
    frequencies, so any oscillation a watcher would otherwise exhibit at the
    pulser's frequency is smoothed away and the pulser keeps classifying
    watcher traffic as inelastic.
    """

    def __init__(self, cutoff_frequency: float,
                 update_interval: float = 0.01) -> None:
        if cutoff_frequency <= 0:
            raise ValueError("cutoff_frequency must be positive")
        if update_interval <= 0:
            raise ValueError("update_interval must be positive")
        # Standard bilinear mapping of a first-order RC low-pass filter.
        time_constant = 1.0 / (2.0 * math.pi * cutoff_frequency)
        self.alpha = update_interval / (update_interval + time_constant)
        self._state: Optional[float] = None

    def filter(self, rate: float) -> float:
        """Return the smoothed rate after incorporating ``rate``."""
        if self._state is None:
            self._state = rate
        else:
            self._state += self.alpha * (rate - self._state)
        return self._state

    def reset(self, rate: Optional[float] = None) -> None:
        """Forget the filter state (e.g. when a watcher becomes a pulser)."""
        self._state = rate
