"""Copa congestion control (Arun & Balakrishnan, NSDI 2018).

Copa is the closest prior work to Nimbus: it targets a rate of
``1 / (delta * d_q)`` packets per second, where ``d_q`` is the estimated
queueing delay, and it switches between a *default* (delay-controlling) mode
and a *TCP-competitive* mode.  The mode detector expects the bottleneck
queue to become nearly empty at least once every 5 RTTs when only Copa
flows share the link; if the estimated queueing delay never approaches its
recent minimum, Copa concludes that buffer-filling cross traffic is present
and competes (by making ``delta`` adapt like AIMD).

The paper (§8.2, Appendix D) shows two failure modes of this detector that
our implementation reproduces:

* when inelastic cross traffic occupies more than ~80 % of the link, the
  queue physically cannot drain within 5 RTTs, so Copa misclassifies the
  traffic as buffer-filling and incurs high delays;
* when an elastic cross flow has a much larger RTT, it ramps slowly enough
  that the queue still empties every 5 RTTs, so Copa stays in default mode
  and loses throughput.
"""

from __future__ import annotations

import math
from collections import deque

from ..simulator.units import MSS_BYTES
from .base import MODE_COMPETITIVE, MODE_DELAY, CongestionControl


class Copa(CongestionControl):
    """Copa with default/TCP-competitive mode switching.

    Args:
        mode_switching: If False the algorithm always stays in default mode
            (this is "Copa's default mode", used as a Nimbus delay-mode
            algorithm in §4.1).
    """

    name = "copa"
    elastic = True

    #: Target aggressiveness in default mode (0.5 in the Copa paper: ~2
    #: packets in the queue at equilibrium).
    DELTA_DEFAULT = 0.5

    def __init__(self, mode_switching: bool = True) -> None:
        super().__init__()
        self.mode_switching = mode_switching

        self.mode = MODE_DELAY
        self.delta = self.DELTA_DEFAULT
        self._velocity = 1.0
        self._max_velocity = 64.0
        self._direction = 0
        self._direction_rtts = 0
        self._last_direction_update = 0.0
        self._last_cwnd_at_update = self.cwnd

        # Queueing-delay history used by the mode detector.
        self._dq_window: deque[tuple[float, float]] = deque()
        self._last_mode_check = 0.0
        self._loss_since_check = False
        self._in_slow_start = True

    # ------------------------------------------------------------------ #
    # ACK processing: move cwnd towards the target rate
    # ------------------------------------------------------------------ #
    def on_ack(self, ack, now: float) -> None:
        m = self.measurement
        rtt = m.rtt
        base = m.base_rtt()
        if rtt <= 0 or base <= 0:
            return
        dq = max(rtt - base, 0.0)
        self._record_dq(now, dq, rtt)
        self._update_mode(now, rtt)

        # Target rate in packets/s; translated to a target cwnd.
        if dq < 1e-4:
            target_rate = math.inf
        else:
            target_rate = 1.0 / (self.delta * dq)
        current_rate = self.cwnd / MSS_BYTES / rtt

        if self._in_slow_start:
            if current_rate < target_rate:
                self.cwnd += ack.acked_bytes
                return
            self._in_slow_start = False

        # Copa adjusts cwnd by v/(delta * cwnd) packets per ACK; summed over a
        # window's worth of ACKs this moves the window by v/delta packets
        # per RTT.  Expressed in bytes and scaled by the acknowledged bytes:
        acked_fraction = ack.acked_bytes / max(self.cwnd, 1.0)
        step = (self._velocity / self.delta) * MSS_BYTES * acked_fraction

        if current_rate < target_rate:
            self.cwnd += step
        else:
            self.cwnd = max(self.cwnd - step, self.min_cwnd)
        self._update_velocity(now, rtt)

    def on_loss(self, lost_bytes: float, now: float) -> None:
        self._in_slow_start = False
        self._loss_since_check = True
        if self.mode == MODE_COMPETITIVE:
            # In competitive mode 1/delta behaves like a TCP window: halve it
            # (i.e. double delta) on loss, capped at the default value.
            self.delta = min(self.delta * 2.0, self.DELTA_DEFAULT)
            self.cwnd = max(self.cwnd / 2.0, self.min_cwnd)

    def on_control_tick(self, now: float, dt: float) -> None:
        m = self.measurement
        if m.rtt > 0:
            dq = max(m.rtt - m.base_rtt(), 0.0)
            self._record_dq(now, dq, m.rtt)
            self._update_mode(now, m.rtt)

    # ------------------------------------------------------------------ #
    # Velocity (Copa's acceleration of the cwnd adjustments)
    # ------------------------------------------------------------------ #
    def _update_velocity(self, now: float, rtt: float) -> None:
        """Once per RTT: double velocity if cwnd kept moving the same way.

        The direction is judged from the *net* cwnd change over the last
        RTT; the velocity doubles only after the direction has persisted for
        three RTTs (as in the Copa reference implementation) and is capped
        to keep the fluid model stable.
        """
        if now - self._last_direction_update < rtt:
            return
        self._last_direction_update = now
        direction = 1 if self.cwnd >= self._last_cwnd_at_update else -1
        self._last_cwnd_at_update = self.cwnd
        if direction == self._direction:
            self._direction_rtts += 1
            if self._direction_rtts >= 3:
                self._velocity = min(self._velocity * 2.0, self._max_velocity)
        else:
            self._direction = direction
            self._direction_rtts = 0
            self._velocity = 1.0

    # ------------------------------------------------------------------ #
    # Mode detection
    # ------------------------------------------------------------------ #
    def _record_dq(self, now: float, dq: float, rtt: float) -> None:
        self._dq_window.append((now, dq))
        horizon = 5.0 * max(rtt, 1e-3)
        while self._dq_window and self._dq_window[0][0] < now - horizon:
            self._dq_window.popleft()

    def _update_mode(self, now: float, rtt: float) -> None:
        if not self.mode_switching:
            self.mode = MODE_DELAY
            return
        interval = 5.0 * max(rtt, 1e-3)
        if now - self._last_mode_check < interval or not self._dq_window:
            return
        self._last_mode_check = now
        dqs = [d for _, d in self._dq_window]
        dq_min = min(dqs)
        dq_max = max(dqs)
        # "Nearly empty": the smallest queueing delay seen in the last
        # 5 RTTs is within 10% of the largest (plus a small absolute floor).
        nearly_empty = dq_min <= max(0.1 * dq_max, 0.002)
        if nearly_empty:
            if self.mode != MODE_DELAY:
                self.mode = MODE_DELAY
                self.delta = self.DELTA_DEFAULT
                self._velocity = 1.0
        else:
            if self.mode != MODE_COMPETITIVE:
                self.mode = MODE_COMPETITIVE
                self.delta = self.DELTA_DEFAULT
            else:
                # AIMD on 1/delta while competitive: grow aggressiveness
                # every check interval without loss.
                if not self._loss_since_check:
                    inv = 1.0 / self.delta + 1.0
                    self.delta = 1.0 / inv
        self._loss_since_check = False
