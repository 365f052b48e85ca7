"""BasicDelay: the paper's simple delay-controlling algorithm (§4.1, Eq. 4).

Upon each control interval the sending rate is set to::

    rate <- S + alpha * (mu - S - z) + beta * (mu / x) * (x_min + d_t - x)

where ``S`` is the sending rate over the last window of packets, ``z`` the
estimated cross-traffic rate, ``mu`` the bottleneck link rate, ``x`` the
current RTT, ``x_min`` the minimum observed RTT, and ``d_t`` a target
queueing delay.  The first correction term moves the rate towards the spare
capacity; the second regulates the queue towards ``d_t`` so that it neither
grows without bound nor empties (the cross-traffic estimator needs a
non-empty queue).
"""

from __future__ import annotations

from typing import Callable, Optional

from .base import CongestionControl


class BasicDelay(CongestionControl):
    """Rate-based delay controller driven by the cross-traffic estimate.

    Args:
        mu: Bottleneck link rate in bytes per second.
        alpha: Gain on the spare-capacity term (0.8 in the paper's §8.1).
        beta: Gain on the queue-regulation term (0.5 in the paper).
        z_provider: Optional callable returning the current cross-traffic
            rate estimate in bytes/s.  When Nimbus embeds BasicDelay it wires
            its own estimator here; standalone, the estimate is computed
            directly from the flow's S and R measurements via Eq. (1).
    """

    name = "basicdelay"
    elastic = True

    #: The rate never falls below this fraction of ``mu``.
    MIN_RATE_FRACTION = 0.02
    #: Target queueing delay ``d_t`` in seconds (12.5 ms, §4.1).
    TARGET_DELAY = 0.0125

    def __init__(self, mu: float, alpha: float = 0.8, beta: float = 0.5,
                 z_provider: Optional[Callable[[float], float]] = None
                 ) -> None:
        super().__init__()
        if mu <= 0:
            raise ValueError("mu must be positive")
        self.mu = mu
        self.alpha = alpha
        self.beta = beta
        self.z_provider = z_provider
        self.rate = 0.1 * mu
        # A generous window cap so the flow stays rate-limited, not
        # window-limited, while still bounding the data in flight.
        self.cwnd = None

    @property
    def min_rate(self) -> float:
        """The rate floor, read off ``mu`` so that it follows a ``mu``
        Nimbus raises as it estimates the link rate."""
        return self.MIN_RATE_FRACTION * self.mu

    def cross_traffic_estimate(self, now: float) -> float:
        """z(t) from Eq. (1), or the injected provider's value."""
        if self.z_provider is not None:
            return max(0.0, self.z_provider(now))
        m = self.measurement
        s = m.send_rate(now)
        r = m.delivery_rate(now)
        if r <= 0 or s <= 0:
            return 0.0
        return max(0.0, self.mu * s / r - s)

    def on_control_tick(self, now: float, dt: float) -> None:
        m = self.measurement
        x = m.rtt
        if x <= 0:
            return
        x_min = m.base_rtt()
        s = m.send_rate(now)
        z = self.cross_traffic_estimate(now)

        spare = self.mu - s - z
        queue_term = (self.beta * self.mu / x) * (x_min + self.TARGET_DELAY - x)
        rate = s + self.alpha * spare + queue_term
        self.rate = float(min(max(rate, self.min_rate), 1.2 * self.mu))

    def on_loss(self, lost_bytes: float, now: float) -> None:
        # Losses mean the queue overflowed despite the delay target; back off
        # to the fair estimate of spare capacity.
        self.rate = max(self.rate * 0.7, self.min_rate)

    def take_over(self, rate: float, rtt: float) -> None:
        """Carry on from ``rate``, clamped like every rate this sets."""
        self.rate = float(min(max(rate, self.min_rate), 1.2 * self.mu))
