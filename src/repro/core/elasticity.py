"""Elasticity detection from the frequency response of cross traffic
(§3.2–§3.4 of the paper).

The detector takes the sampled cross-traffic rate estimate ``z(t)`` over
one FFT window (:data:`FFT_DURATION`, 5 s), computes its discrete Fourier
transform, and forms the elasticity metric::

    eta = |FFT_z(fp)| / max_{f in (fp, 2*fp)} |FFT_z(f)|        (Eq. 3)

Elastic (ACK-clocked) cross traffic oscillates at the pulse frequency
``fp``, producing a pronounced peak at ``fp`` relative to the neighbouring
band, so ``eta`` is large; inelastic traffic spreads its energy across
frequencies and ``eta`` stays near 1.  Traffic is classified elastic when
``eta >= eta_thresh`` (:data:`THRESHOLD`, 2).

The same machinery is reused by watcher flows (§6) to detect whether a
pulser is active, and at which of the two agreed frequencies it is pulsing,
by examining the FFT of their own receive rate.

The two readings are :meth:`ElasticityDetector.evaluate` (eta and |FFT(fp)|
of one window) and :meth:`PulserDetector.evaluate` (the pulser's mode, or
None).  Both are stateless: the caller cuts the window and passes its
realised sample spacing, and the paper's constants live in this module.

One window is transformed once: :class:`Spectrum` is the only caller of
``np.fft.rfft`` in the package, and every reading comes off the one built.
What depends only on the window's size and spacing — the frequency axis,
the bin nearest a frequency, the bins inside a band — is a pure function of
those numbers, computed once per process and shared read-only by every
spectrum of that shape, so a reading costs an index, not a scan of the axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from ..cc.base import MODE_COMPETITIVE, MODE_DELAY
from .pulses import PulseShape

#: Default pulse frequency fp (Hz).
DEFAULT_PULSE_FREQUENCY = 5.0
#: The FFT window (seconds).
FFT_DURATION = 5.0
#: eta_thresh: eta at or above it means elastic cross traffic.
THRESHOLD = 2.0
#: The two agreed pulse frequencies of multi-flow operation (§6): fpc marks
#: a pulser in TCP-competitive mode, fpd one in delay-control mode (Hz).
COMPETITIVE_FREQUENCY = 5.0
DELAY_FREQUENCY = 6.0


#: Frequency plans kept per process: the (size, spacing) shapes and the
#: frequencies read at them.  A run reads a handful of each; the bound only
#: keeps a sweep over many spacings from growing the caches without end.
_PLAN_CACHE = 1024


@lru_cache(maxsize=_PLAN_CACHE)
def _frequencies(size: int, spacing: float) -> np.ndarray:
    """``rfftfreq(size, spacing)``, read-only: every spectrum of this shape
    shares the one array."""
    freqs = np.fft.rfftfreq(size, d=spacing)
    freqs.flags.writeable = False
    return freqs


@lru_cache(maxsize=_PLAN_CACHE)
def _nearest_bin(size: int, spacing: float, frequency: float) -> int:
    """Index of the bin closest to ``frequency`` (the first of a tie)."""
    freqs = _frequencies(size, spacing)
    return int(np.argmin(np.abs(freqs - frequency)))


@lru_cache(maxsize=_PLAN_CACHE)
def _band(size: int, spacing: float, low: float,
          high: float) -> Optional[slice]:
    """The bins with frequency strictly inside (low, high), or None.

    The axis is monotone, so those bins are one contiguous run.
    """
    freqs = _frequencies(size, spacing)
    inside = np.flatnonzero((freqs > low) & (freqs < high))
    if inside.size == 0:
        return None
    return slice(int(inside[0]), int(inside[-1]) + 1)


class Spectrum:
    """One-sided magnitude spectrum (``freqs``, ``mags``) of one window.

    The mean is removed first so the DC component does not dominate, and
    the magnitudes are normalised by the number of samples so that a
    sinusoid of amplitude ``a`` appears with magnitude ``~a/2`` regardless
    of window length (the absolute scale cancels in the elasticity ratio
    anyway).  Fewer than four samples make an empty spectrum, which reads
    0.0 everywhere.  A non-empty ``freqs`` is shared by every spectrum of
    the same size and spacing, and is read-only.
    """

    def __init__(self, samples: Sequence[float],
                 sample_interval: float) -> None:
        x = np.asarray(samples, dtype=float)
        self.size = x.size
        self.sample_interval = sample_interval
        if x.size < 4:
            self.freqs = self.mags = np.array([])
            return
        x = x - x.mean()
        self.freqs = _frequencies(x.size, sample_interval)
        self.mags = np.abs(np.fft.rfft(x)) / x.size

    def at(self, frequency: float) -> float:
        """Magnitude of the bin closest to ``frequency``."""
        if self.freqs.size == 0:
            return 0.0
        return float(self.mags[_nearest_bin(self.size, self.sample_interval,
                                             frequency)])

    def peak_between(self, low: float, high: float) -> float:
        """Largest magnitude with frequency strictly inside (low, high)."""
        if self.freqs.size == 0:
            return 0.0
        band = _band(self.size, self.sample_interval, low, high)
        if band is None:
            return 0.0
        return float(self.mags[band].max())

    def eta(self, pulse_frequency: float) -> float:
        """The elasticity metric (Eq. 3) for pulses at ``pulse_frequency``.

        Returns 0.0 when there are not enough samples to resolve the pulse
        frequency (less than roughly two pulse periods of data).
        """
        min_samples = max(8, int(round(
            2.0 / (pulse_frequency * self.sample_interval))))
        if self.size < min_samples:
            return 0.0
        peak_at_fp = self.at(pulse_frequency)
        # Exclude the fp bin itself (and a guard bin either side) from the
        # comparison band so spectral leakage from the peak does not count
        # against it.
        resolution = self.freqs[1] - self.freqs[0]
        competitor = self.peak_between(
            pulse_frequency + 1.5 * resolution,
            2.0 * pulse_frequency - 0.5 * resolution)
        if competitor <= 0.0:
            return float("inf") if peak_at_fp > 0 else 0.0
        return peak_at_fp / competitor


def elasticity_metric(samples: Sequence[float], sample_interval: float,
                      pulse_frequency: float = DEFAULT_PULSE_FREQUENCY
                      ) -> float:
    """Compute eta (Eq. 3) from a z(t) sample series."""
    return Spectrum(samples, sample_interval).eta(pulse_frequency)


def pulse_sent(times: Sequence[float], send_rates: Sequence[float],
               pulse: PulseShape, mu: float) -> Tuple[float, float]:
    """How much of its scheduled pulse a sender actually sent.

    Returns ``(magnitude, ratio)``: ``magnitude`` is |S(fp)|, the send-rate
    series' spectrum at the pulse frequency, read at the median spacing of
    ``times``; ``ratio`` divides it by the same reading of the scheduled
    offset ``pulse.offset(t, mu)`` at the same times, so 1.0 means the
    pulse left unclipped.  ``ratio`` is 0.0 when the scheduled reading is
    0, as it is for fewer than four samples.  ``send_rates`` and ``mu``
    share one unit.
    """
    times = np.asarray(times, dtype=float)
    spacing = float(np.median(np.diff(times))) if times.size > 1 else 0.0
    magnitude = Spectrum(send_rates, spacing).at(pulse.frequency)
    scheduled = Spectrum([pulse.offset(t, mu) for t in times],
                         spacing).at(pulse.frequency)
    return magnitude, (magnitude / scheduled if scheduled > 0.0 else 0.0)


@dataclass(frozen=True)
class DetectorSample:
    """One window read at one frequency: eta (Eq. 3) and the magnitude
    |FFT(f)| of the bin it divides."""

    eta: float
    magnitude: float


class ElasticityDetector:
    """Eq. 3 read off one window.  No state: the class is a name for the
    reading, which a profiler can time as one entry point."""

    @staticmethod
    def evaluate(window: Sequence[float], spacing: float,
                 frequency: float) -> DetectorSample:
        """eta and |FFT(frequency)| of ``window``, samples ``spacing`` apart."""
        spectrum = Spectrum(window, spacing)
        return DetectorSample(spectrum.eta(frequency), spectrum.at(frequency))


class PulserDetector:
    """Whether, and in which mode, a Nimbus pulser is active (§6).

    Watcher flows read the FFT of their own receive rate: a peak at
    :data:`COMPETITIVE_FREQUENCY` means a pulser in TCP-competitive mode, a
    peak at :data:`DELAY_FREQUENCY` one in delay-control mode, and no peak
    at either means there is currently no pulser.  No state, like
    :class:`ElasticityDetector`.
    """

    @staticmethod
    def evaluate(window: Sequence[float], spacing: float) -> Optional[str]:
        """:data:`MODE_COMPETITIVE` or :data:`MODE_DELAY` for the pulser
        ``window`` shows, or None when eta stays below :data:`THRESHOLD` at
        both frequencies."""
        spectrum = Spectrum(window, spacing)
        eta_c = spectrum.eta(COMPETITIVE_FREQUENCY)
        eta_d = spectrum.eta(DELAY_FREQUENCY)
        if max(eta_c, eta_d) < THRESHOLD:
            return None
        return MODE_COMPETITIVE if eta_c >= eta_d else MODE_DELAY


def cross_correlation_detector(s_samples: Sequence[float],
                               z_samples: Sequence[float],
                               threshold: float = 0.3) -> Tuple[float, bool]:
    """The paper's rejected time-domain strawman (§3.3).

    Computes the maximum-magnitude normalised cross-correlation between the
    sender's rate S(t) and the cross-traffic estimate z(t) over all lags,
    and classifies the cross traffic as elastic when it exceeds the
    threshold.  Kept as an ablation baseline: it works only when the cross
    traffic is substantially elastic and shares the sender's RTT.
    """
    s = np.asarray(s_samples, dtype=float)
    z = np.asarray(z_samples, dtype=float)
    n = min(s.size, z.size)
    if n < 8:
        return 0.0, False
    s = s[-n:] - s[-n:].mean()
    z = z[-n:] - z[-n:].mean()
    denom = np.sqrt((s ** 2).sum() * (z ** 2).sum())
    if denom <= 0:
        return 0.0, False
    corr = np.correlate(z, s, mode="full") / denom
    peak = float(np.max(np.abs(corr)))
    return peak, peak >= threshold
