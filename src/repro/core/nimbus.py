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
over with ``take_over(rate, rtt)``.  Each detection interval builds one
:class:`~repro.core.elasticity.Spectrum` per window it reads (z for a
single flow; r for a watcher; z and r for a pulser).
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Callable, Deque, Optional, Tuple

import numpy as np

from ..cc.base import MODE_COMPETITIVE, MODE_DELAY, CongestionControl
from ..cc.basic_delay import BasicDelay
from ..cc.cubic import Cubic
from ..simulator.units import MSS_BYTES
from .elasticity import ElasticityDetector, PulserDetector, Spectrum
from .estimator import CrossTrafficEstimator
from .multiflow import ROLE_PULSER, ROLE_WATCHER, PulserElection, WatcherRateFilter
from .pulses import AsymmetricSinusoidPulse, NoPulse, PulseShape

#: How many of the newest z-sample timestamps the realised sample spacing is
#: taken over (see :meth:`Nimbus.actual_sample_interval`).
_SPACING_SAMPLES = 200


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
        pulse_frequency: Pulse frequency in Hz for single-flow operation.
        fft_duration: Elasticity FFT window in seconds (5 s).
        threshold: Elasticity threshold ``eta_thresh`` (2).
        sample_interval: Spacing of z samples and control decisions (10 ms).
        multi_flow: Enable the pulser/watcher protocol of §6.
        competitive_frequency / delay_frequency: The two agreed pulse
            frequencies ``fpc`` and ``fpd`` used in multi-flow operation.
        kappa: Expected number of pulser elections per FFT window.
        pulse_shape_factory: Alternative pulse shape (ablations).
        switch_to_delay_persistence: Seconds eta must stay below the
            threshold before switching back from TCP-competitive to
            delay-control mode (switching into competitive mode is always
            immediate).
        seed: Seed for the election randomness.
    """

    name = "nimbus"
    elastic = True

    def __init__(self, mu: Optional[float] = None,
                 competitive: Optional[CongestionControl] = None,
                 delay: Optional[CongestionControl] = None,
                 pulse_fraction: float = 0.25,
                 pulse_frequency: float = 5.0,
                 fft_duration: float = 5.0,
                 threshold: float = 2.0,
                 sample_interval: float = 0.01,
                 multi_flow: bool = False,
                 competitive_frequency: float = 5.0,
                 delay_frequency: float = 6.0,
                 kappa: float = 1.0,
                 pulse_shape_factory: Optional[
                     Callable[[float, float], PulseShape]] = None,
                 switch_to_delay_persistence: float = 1.0,
                 seed: int = 0) -> None:
        super().__init__()
        self.mu_configured = mu
        self._mu_estimate = mu if mu is not None else 0.0
        self.pulse_fraction = pulse_fraction
        self.pulse_frequency = pulse_frequency
        self.fft_duration = fft_duration
        self.threshold = threshold
        self.sample_interval = sample_interval
        self.multi_flow = multi_flow
        self.competitive_frequency = competitive_frequency
        self.delay_frequency = delay_frequency
        #: How long eta must stay below the threshold before leaving
        #: TCP-competitive mode.  Switching into competitive mode is
        #: immediate (protecting throughput); switching back to delay mode
        #: is deliberately sticky so that noise around the threshold does
        #: not flap the mode and repeatedly give up bandwidth.
        self.switch_to_delay_persistence = switch_to_delay_persistence

        shape_factory = (pulse_shape_factory if pulse_shape_factory is not None
                         else AsymmetricSinusoidPulse)
        #: The pulser's shape per mode (one frequency unless multi-flow).
        fpc, fpd = ((competitive_frequency, delay_frequency) if multi_flow
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
            sample_interval=sample_interval)
        self.detector = ElasticityDetector(sample_interval=sample_interval,
                                           pulse_frequency=pulse_frequency,
                                           fft_duration=fft_duration,
                                           threshold=threshold)
        self.pulser_detector = PulserDetector(
            sample_interval=sample_interval,
            competitive_frequency=competitive_frequency,
            delay_frequency=delay_frequency,
            fft_duration=fft_duration,
            threshold=threshold)
        self.election = PulserElection(kappa=kappa,
                                       decision_interval=sample_interval,
                                       fft_duration=fft_duration,
                                       rng=random.Random(seed))
        self.watcher_filter = WatcherRateFilter(
            min(competitive_frequency, delay_frequency),
            update_interval=sample_interval)

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
        self._last_sample = -math.inf
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
        """The pulse shape in use, given the role and mode."""
        if self.role == ROLE_WATCHER:
            return NoPulse()
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
    # Main control loop (every control interval, default 10 ms)
    # ------------------------------------------------------------------ #
    def on_control_tick(self, now: float, dt: float) -> None:
        m = self.measurement
        self._update_mu()
        self.active_inner.on_control_tick(now, dt)
        if m.rtt <= 0:
            # No feedback yet: let the inner algorithm's defaults drive us.
            self._apply_rate(now, initial=True)
            return

        if now - self._last_sample >= self.sample_interval - 1e-12:
            self._last_sample = now
            self._take_sample(now)
            if self.multi_flow:
                self._multi_flow_logic(now)
            else:
                self._single_flow_logic(now)

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
        z = self.estimator.maybe_sample(now, self.measurement)
        if z is not None:
            self.latest_z = z

    def actual_sample_interval(self) -> float:
        """Observed spacing of the z samples.

        The control loop runs on the simulator's tick grid, so the realised
        sample spacing can differ from the nominal ``sample_interval`` (e.g.
        a 10 ms target on a 4 ms grid yields 12 ms samples).  The FFT's
        frequency axis must use the realised spacing or the pulse peak lands
        in the wrong bin.
        """
        times = self.estimator.times(
            _SPACING_SAMPLES * self.estimator.sample_interval)
        if len(times) < 3:
            return self.sample_interval
        # np.median(np.diff(times)), bit for bit: the middle gap, or the
        # mean of the middle two, of the sorted gaps.
        gaps = np.sort(times[1:] - times[:-1])
        middle = gaps.size // 2
        if gaps.size % 2:
            spacing = float(gaps[middle])
        else:
            spacing = float((gaps[middle - 1] + gaps[middle]) / 2)
        return spacing if spacing > 0 else self.sample_interval

    def _single_flow_logic(self, now: float) -> None:
        z = self.estimator.z_series(self.fft_duration)
        if not self.detector.has_full_window(z):
            return
        self.detector.sample_interval = self.actual_sample_interval()
        result = self.detector.evaluate(z)
        self.last_eta = result.eta
        self.eta_history.append((now, result.eta))
        target_mode = self._decide_mode(result.eta, now)
        if target_mode != self.mode:
            self._switch_mode(target_mode, now)

    def _multi_flow_logic(self, now: float) -> None:
        r_series = self.estimator.r_series(self.fft_duration)
        sample_interval = self.actual_sample_interval()
        self.pulser_detector.sample_interval = sample_interval
        if self.role == ROLE_WATCHER:
            if len(r_series) < self.pulser_detector.window_samples:
                return
            present, mode, _, _ = self.pulser_detector.evaluate(r_series)
            if present and mode is not None:
                if mode != self.mode:
                    self._switch_mode(mode, now)
            else:
                # No pulser seen: maybe volunteer (Eq. 5).
                receive_rate = self.measurement.delivery_rate(now)
                if self.election.should_become_pulser(now, receive_rate,
                                                      self.mu):
                    self.role = ROLE_PULSER
                    self.watcher_filter.reset()
            return

        # Pulser: ordinary elasticity detection on z, plus conflict check.
        z_series = self.estimator.z_series(self.fft_duration)
        if not self.detector.has_full_window(z_series):
            return
        fp = self.current_pulse.frequency
        z_spectrum = Spectrum(z_series, sample_interval)
        eta = z_spectrum.eta(fp)
        self.last_eta = eta
        self.eta_history.append((now, eta))
        target_mode = self._decide_mode(eta, now)
        if target_mode != self.mode:
            self._switch_mode(target_mode, now)
        self._check_pulser_conflict(z_spectrum, r_series, fp)

    def _check_pulser_conflict(self, z_spectrum: Spectrum, r_series,
                               fp: float) -> None:
        """Demote to watcher if the cross traffic pulses harder than we do."""
        if len(r_series) < self.pulser_detector.window_samples:
            return
        r_peak = Spectrum(r_series, z_spectrum.sample_interval).at(fp)
        if z_spectrum.at(fp) > r_peak * 1.2 and self.election.should_demote():
            self.role = ROLE_WATCHER
            self.watcher_filter.reset()

    # ------------------------------------------------------------------ #
    # Mode switching
    # ------------------------------------------------------------------ #
    def _decide_mode(self, eta: float, now: float) -> str:
        """Hard decision on eta, with a persistence guard on leaving
        competitive mode (see ``switch_to_delay_persistence``)."""
        if eta >= self.threshold:
            self._last_eta_above_threshold = now
            return MODE_COMPETITIVE
        if (self.mode == MODE_COMPETITIVE
                and now - self._last_eta_above_threshold
                < self.switch_to_delay_persistence):
            return MODE_COMPETITIVE
        return MODE_DELAY

    def _switch_mode(self, target_mode: str, now: float) -> None:
        rate = self._current_base_rate(now)  # of the inner we are leaving
        if target_mode == MODE_COMPETITIVE:
            # Reset to the rate from one FFT window ago: the elastic cross
            # traffic has been stealing bandwidth while we detected it.
            rate = max(self._rate_at(now - self.fft_duration), rate)
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
        horizon = self.fft_duration + 2.0
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
