"""Nimbus: mode-switching congestion control driven by elasticity detection
(§4 and §6 of the paper).

Nimbus runs two inner congestion-control algorithms — a TCP-competitive one
(Cubic by default) and a delay-controlling one (BasicDelay by default) — and
uses the elasticity detector to decide which one governs the sending rate:

* the sender's rate is modulated with asymmetric sinusoidal pulses at a
  known frequency;
* the cross-traffic rate ``z(t)`` is estimated every 10 ms from the sender's
  own send and receive rates (Eq. 1);
* the FFT of the last 5 seconds of ``z(t)`` yields the elasticity metric
  ``eta`` (Eq. 3); ``eta >= 2`` means elastic cross traffic, so Nimbus uses
  the TCP-competitive algorithm, otherwise the delay-control algorithm;
* when switching into TCP-competitive mode, the rate is reset to its value
  from one FFT window ago, undoing the throughput the delay algorithm ceded
  while the elastic cross traffic was ramping up.

With ``multi_flow=True`` the controller additionally plays the
pulser/watcher protocol of §6: watchers do not pulse, low-pass filter their
rate, and copy the mode signalled by the pulser's choice of frequency
(``fpc`` in competitive mode, ``fpd`` in delay mode).

The inner algorithms are building blocks: Nimbus drives them through the
:class:`~repro.cc.base.CongestionControl` hooks alone and hands the flow
over with ``take_over(rate, rtt)``.  Detection is one path,
:meth:`Nimbus._detect`, under one window rule: nothing is read until the
estimator row holds a full nominal window (500 samples), and then every
reading is the trailing 5 s of its row at the realised sample spacing, cut
by :func:`_window`.  The estimator samples once per control tick, so that
spacing is the endpoint's :func:`~repro.simulator.endpoint.control_period`
of the tick (12 ms on a 4 ms grid).  A pulser — a single flow is one — reads z, plus R for
the multi-flow conflict check; a watcher reads R.  Every FFT goes through
the stateless :class:`~repro.core.elasticity.ElasticityDetector` or
:class:`~repro.core.elasticity.PulserDetector`.  The paper's constants —
the 5 s window, ``eta_thresh``, ``fpc`` and ``fpd`` — are
:mod:`~repro.core.elasticity`'s, and the control interval is the
endpoint's :data:`~repro.simulator.endpoint.CONTROL_INTERVAL`.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Callable, Deque, Optional, Sequence, Tuple

from ..cc.base import MODE_COMPETITIVE, MODE_DELAY, CongestionControl
from ..cc.basic_delay import BasicDelay
from ..cc.cubic import Cubic
from ..simulator.endpoint import CONTROL_INTERVAL, control_period
from ..simulator.units import MSS_BYTES
from .elasticity import (COMPETITIVE_FREQUENCY, DEFAULT_PULSE_FREQUENCY,
                         DELAY_FREQUENCY, FFT_DURATION, THRESHOLD,
                         ElasticityDetector, PulserDetector)
from .estimator import CrossTrafficEstimator
from .multiflow import ROLE_PULSER, ROLE_WATCHER, PulserElection, WatcherRateFilter
from .pulses import AsymmetricSinusoidPulse, PulseShape

#: Samples in one FFT window at the nominal control interval (500): what
#: ``z_series(FFT_DURATION)`` holds once full.
_FULL_WINDOW = int(round(FFT_DURATION / CONTROL_INTERVAL))

#: How long (seconds) eta must stay below the threshold before Nimbus leaves
#: TCP-competitive mode.  Switching into competitive mode is immediate
#: (protecting throughput); switching back to delay mode is deliberately
#: sticky so that noise around the threshold does not flap the mode and
#: repeatedly give up bandwidth.
SWITCH_TO_DELAY_PERSISTENCE = 1.0


def _window(series: Sequence[float], spacing: float) -> Sequence[float]:
    """The trailing ``FFT_DURATION`` of ``series`` at the realised sample
    ``spacing`` (417 samples at 12 ms), or all of it if it spans less.

    ``series`` is an estimator row over ``FFT_DURATION`` at the nominal
    control interval, :data:`_FULL_WINDOW` samples once full.
    """
    count = int(round(FFT_DURATION / spacing))
    return series[max(len(series) - count, 0):]


class Nimbus(CongestionControl):
    """The Nimbus mode-switching congestion controller.

    Args:
        mu: Bottleneck link rate in bytes/s.  If None, Nimbus estimates it
            as the maximum delivery rate observed (as the implementation in
            the paper does, §4.2).
        competitive: TCP-competitive inner algorithm (default: Cubic).
        delay: Delay-controlling inner algorithm (default: BasicDelay wired
            to Nimbus's cross-traffic estimator).
        pulse_fraction: Peak pulse amplitude as a fraction of ``mu`` (0.25).
        pulse_frequency: Pulse frequency in Hz for single-flow operation
            (multi-flow operation pulses at ``fpc`` or ``fpd``).
        multi_flow: Enable the pulser/watcher protocol of §6.
        pulse_shape_factory: Alternative pulse shape (ablations).
        seed: Seed for the election randomness.
    """

    name = "nimbus"
    elastic = True

    def __init__(self, mu: Optional[float] = None,
                 competitive: Optional[CongestionControl] = None,
                 delay: Optional[CongestionControl] = None,
                 pulse_fraction: float = 0.25,
                 pulse_frequency: float = DEFAULT_PULSE_FREQUENCY,
                 multi_flow: bool = False,
                 pulse_shape_factory: Optional[
                     Callable[[float, float], PulseShape]] = None,
                 seed: int = 0) -> None:
        super().__init__()
        self.mu_configured = mu
        self._mu_estimate = mu if mu is not None else 0.0
        self.pulse_fraction = pulse_fraction
        self.multi_flow = multi_flow

        shape_factory = (pulse_shape_factory if pulse_shape_factory is not None
                         else AsymmetricSinusoidPulse)
        #: The pulser's shape per mode (one frequency unless multi-flow).
        fpc, fpd = ((COMPETITIVE_FREQUENCY, DELAY_FREQUENCY) if multi_flow
                    else (pulse_frequency, pulse_frequency))
        self._pulses = {MODE_COMPETITIVE: shape_factory(fpc, pulse_fraction),
                        MODE_DELAY: shape_factory(fpd, pulse_fraction)}

        self.competitive_cc = competitive if competitive is not None else Cubic()
        if delay is not None:
            self.delay_cc = delay
        else:
            self.delay_cc = BasicDelay(
                mu if mu is not None else 1.0,
                z_provider=lambda now: self.latest_z)

        self.estimator = CrossTrafficEstimator(
            mu if mu is not None and mu > 0 else 1.0,
            sample_interval=CONTROL_INTERVAL)
        self.election = PulserElection(decision_interval=CONTROL_INTERVAL,
                                       fft_duration=FFT_DURATION,
                                       rng=random.Random(seed))
        self.watcher_filter = WatcherRateFilter(
            min(COMPETITIVE_FREQUENCY, DELAY_FREQUENCY),
            update_interval=CONTROL_INTERVAL)

        self.mode = MODE_DELAY
        self.role = ROLE_WATCHER if multi_flow else ROLE_PULSER
        self.last_eta = 0.0
        self.latest_z = 0.0
        #: (time, eta) samples recorded at every detector evaluation; used by
        #: the Fig. 6 / Fig. 12 / Fig. 26 experiments.
        self.eta_history: list = []
        self.cwnd = None
        self.rate = None
        self._rate_history: Deque[Tuple[float, float]] = deque()
        self._last_eta_above_threshold = -math.inf

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def mu(self) -> float:
        """Current bottleneck-rate estimate (bytes/s)."""
        if self.mu_configured is not None:
            return self.mu_configured
        return max(self._mu_estimate, 1.0)

    @property
    def active_inner(self) -> CongestionControl:
        """The inner algorithm currently governing the base rate."""
        return (self.competitive_cc if self.mode == MODE_COMPETITIVE
                else self.delay_cc)

    @property
    def current_pulse(self) -> PulseShape:
        """The pulse shape of the current mode (a watcher sends none)."""
        return self._pulses[self.mode]

    # ------------------------------------------------------------------ #
    # Registration / delegation
    # ------------------------------------------------------------------ #
    def register(self, flow) -> None:
        super().register(flow)
        self.competitive_cc.register(flow)
        self.delay_cc.register(flow)

    def on_ack(self, ack, now: float) -> None:
        self._update_mu()
        self.active_inner.on_ack(ack, now)

    def on_loss(self, lost_bytes: float, now: float) -> None:
        self.active_inner.on_loss(lost_bytes, now)

    # ------------------------------------------------------------------ #
    # Main control loop (the endpoint calls it every CONTROL_INTERVAL)
    # ------------------------------------------------------------------ #
    def on_control_tick(self, now: float, dt: float) -> None:
        m = self.measurement
        self._update_mu()
        self.active_inner.on_control_tick(now, dt)
        if m.rtt <= 0:
            # No feedback yet: let the inner algorithm's defaults drive us.
            self._apply_rate(now, initial=True)
            return

        self._take_sample(now)
        self._detect(now, control_period(dt))
        self._apply_rate(now)

    # ------------------------------------------------------------------ #
    # Sampling and detection
    # ------------------------------------------------------------------ #
    def _update_mu(self) -> None:
        if self.mu_configured is not None:
            return
        rate = self.measurement.max_delivery_rate
        if rate > self._mu_estimate:
            self._mu_estimate = rate
            self.estimator.mu = self.mu
            if isinstance(self.delay_cc, BasicDelay):
                self.delay_cc.mu = self.mu

    def _take_sample(self, now: float) -> None:
        self.estimator.mu = self.mu
        self.latest_z = self.estimator.maybe_sample(now, self.measurement)

    def _detect(self, now: float, spacing: float) -> None:
        """One detection interval on rows sampled every ``spacing`` seconds:
        a pulser follows eta (Eq. 3) on z, and with ``multi_flow`` demotes
        itself if the cross traffic pulses harder than it does; a watcher
        copies the mode a pulser signals in R."""
        watching = self.role == ROLE_WATCHER
        row = (self.estimator.r_series if watching
               else self.estimator.z_series)(FFT_DURATION)
        if len(row) < _FULL_WINDOW:
            return
        window = _window(row, spacing)
        if watching:
            mode = PulserDetector.evaluate(window, spacing)
            if mode is None:
                # No pulser seen: maybe volunteer (Eq. 5).
                receive_rate = self.measurement.delivery_rate(now)
                if self.election.should_become_pulser(receive_rate, self.mu):
                    self.role = ROLE_PULSER
                    self.watcher_filter.reset()
            elif mode != self.mode:
                self._switch_mode(mode, now)
            return

        fp = self.current_pulse.frequency
        z = ElasticityDetector.evaluate(window, spacing, fp)
        self._follow(z.eta, now)
        if self.multi_flow:
            r = ElasticityDetector.evaluate(
                _window(self.estimator.r_series(FFT_DURATION), spacing),
                spacing, fp)
            if z.magnitude > r.magnitude * 1.2 \
                    and self.election.should_demote():
                self.role = ROLE_WATCHER
                self.watcher_filter.reset()

    # ------------------------------------------------------------------ #
    # Mode switching
    # ------------------------------------------------------------------ #
    def _follow(self, eta: float, now: float) -> None:
        """Record one eta reading and switch to the mode it calls for:
        competitive at once when ``eta >= THRESHOLD``, delay only once eta
        has stayed below it for :data:`SWITCH_TO_DELAY_PERSISTENCE`."""
        self.last_eta = eta
        self.eta_history.append((now, eta))
        if eta >= THRESHOLD:
            self._last_eta_above_threshold = now
            target_mode = MODE_COMPETITIVE
        elif (now - self._last_eta_above_threshold
              >= SWITCH_TO_DELAY_PERSISTENCE):
            target_mode = MODE_DELAY
        else:
            return
        if target_mode != self.mode:
            self._switch_mode(target_mode, now)

    def _switch_mode(self, target_mode: str, now: float) -> None:
        rate = self._current_base_rate(now)  # of the inner we are leaving
        if target_mode == MODE_COMPETITIVE:
            # Reset to the rate from one FFT window ago: the elastic cross
            # traffic has been stealing bandwidth while we detected it.
            rate = max(self._rate_at(now - FFT_DURATION), rate)
        self.mode = target_mode
        self.active_inner.take_over(
            rate, max(self.measurement.rtt, self.measurement.base_rtt()))

    # ------------------------------------------------------------------ #
    # Rate computation
    # ------------------------------------------------------------------ #
    def _current_base_rate(self, now: float) -> float:
        inner = self.active_inner
        rate = inner.pacing_rate
        if rate is not None and rate > 0:
            return rate
        cwnd = inner.cwnd_bytes
        rtt = self.measurement.rtt or self.measurement.base_rtt()
        if cwnd is not None and rtt > 0:
            return cwnd / rtt
        return max(self.mu * 0.05, MSS_BYTES / max(rtt, 1e-3))

    def _apply_rate(self, now: float, initial: bool = False) -> None:
        base = self._current_base_rate(now)
        if self.role == ROLE_WATCHER:
            base = self.watcher_filter.filter(base)
            offset = 0.0
        else:
            offset = self.current_pulse.offset(now, self.mu) if not initial else 0.0
        floor = max(0.02 * self.mu, MSS_BYTES / max(self.measurement.base_rtt(),
                                                    1e-3))
        self.rate = max(base + offset, floor)
        # Keep a generous window cap so a stale pacing rate cannot flood the
        # queue unboundedly if ACKs stall.
        rtt = max(self.measurement.rtt, self.measurement.base_rtt())
        if rtt > 0 and math.isfinite(rtt):
            self.cwnd = max(2.0 * base * rtt + 8 * MSS_BYTES, 10 * MSS_BYTES)
        self._record_rate(now, base)

    def _record_rate(self, now: float, rate: float) -> None:
        self._rate_history.append((now, rate))
        horizon = FFT_DURATION + 2.0
        while self._rate_history and self._rate_history[0][0] < now - horizon:
            self._rate_history.popleft()

    def _rate_at(self, when: float) -> float:
        """Base rate closest to the requested (past) time."""
        if not self._rate_history:
            return 0.0
        best_rate = self._rate_history[0][1]
        for t, rate in self._rate_history:
            if t <= when:
                best_rate = rate
            else:
                break
        return best_rate
