"""Elasticity detection: the FFT metric (Eq. 3), detectors, and the
cross-correlation strawman."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.elasticity import (
    COMPETITIVE_FREQUENCY,
    DELAY_FREQUENCY,
    THRESHOLD,
    DetectorSample,
    ElasticityDetector,
    PulserDetector,
    Spectrum,
    cross_correlation_detector,
    elasticity_metric,
    pulse_sent,
)
from repro.core.nimbus import _window
from repro.core.pulses import AsymmetricSinusoidPulse

SAMPLE_INTERVAL = 0.01
FP = 5.0
RNG = np.random.default_rng(42)


def sine_at(frequency, duration=5.0, amplitude=1.0, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(0, duration, SAMPLE_INTERVAL)
    signal = amplitude * np.sin(2 * np.pi * frequency * t)
    if noise:
        signal = signal + rng.normal(0, noise, size=t.size)
    return signal


class TestFftHelpers:
    def test_fft_peak_location(self):
        spectrum = Spectrum(sine_at(FP), SAMPLE_INTERVAL)
        assert spectrum.freqs[np.argmax(spectrum.mags)] == \
            pytest.approx(FP, abs=0.2)

    def test_magnitude_at(self):
        spectrum = Spectrum(sine_at(FP), SAMPLE_INTERVAL)
        assert spectrum.at(FP) == pytest.approx(0.5, rel=0.05)

    def test_band_peak_excludes_endpoints(self):
        # One second at 10 ms puts every integer frequency on its own bin.
        signal = sum(amplitude * sine_at(frequency, duration=1.0)
                     for frequency, amplitude in
                     ((5.0, 18.0), (6.0, 2.0), (7.0, 4.0), (10.0, 16.0)))
        spectrum = Spectrum(signal, SAMPLE_INTERVAL)
        assert spectrum.peak_between(5.0, 10.0) == pytest.approx(2.0)
        assert spectrum.peak_between(4.5, 10.0) == pytest.approx(9.0)
        assert spectrum.peak_between(5.0, 10.5) == pytest.approx(8.0)

    def test_empty_input(self):
        spectrum = Spectrum([], SAMPLE_INTERVAL)
        assert spectrum.freqs.size == 0
        assert spectrum.at(FP) == 0.0
        assert spectrum.peak_between(1, 2) == 0.0
        assert spectrum.eta(FP) == 0.0

    def test_dc_removed(self):
        spectrum = Spectrum(np.full(500, 7.0), SAMPLE_INTERVAL)
        assert spectrum.mags.max() == pytest.approx(0.0, abs=1e-9)


# --------------------------------------------------------------------- #
# Differential: Spectrum against the four free functions it replaced,
# kept here verbatim as the reference.  Same floats, so ``==``.
# --------------------------------------------------------------------- #
def _ref_fft_magnitude(samples, sample_interval):
    x = np.asarray(samples, dtype=float)
    if x.size < 4:
        return np.array([]), np.array([])
    x = x - x.mean()
    spectrum = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(x.size, d=sample_interval)
    mags = np.abs(spectrum) / x.size
    return freqs, mags


def _ref_band_peak(freqs, mags, low, high,
                   include_low=False, include_high=False):
    if freqs.size == 0:
        return 0.0
    lo = freqs >= low if include_low else freqs > low
    hi = freqs <= high if include_high else freqs < high
    mask = lo & hi
    if not mask.any():
        return 0.0
    return float(mags[mask].max())


def _ref_magnitude_at(freqs, mags, frequency):
    if freqs.size == 0:
        return 0.0
    idx = int(np.argmin(np.abs(freqs - frequency)))
    return float(mags[idx])


def _ref_elasticity_metric(samples, sample_interval, pulse_frequency=5.0):
    x = np.asarray(samples, dtype=float)
    min_samples = max(8, int(round(2.0 / (pulse_frequency * sample_interval))))
    if x.size < min_samples:
        return 0.0
    freqs, mags = _ref_fft_magnitude(x, sample_interval)
    peak_at_fp = _ref_magnitude_at(freqs, mags, pulse_frequency)
    resolution = freqs[1] - freqs[0] if freqs.size > 1 else sample_interval
    competitor = _ref_band_peak(freqs, mags,
                                pulse_frequency + 1.5 * resolution,
                                2.0 * pulse_frequency - 0.5 * resolution)
    if competitor <= 0.0:
        return float("inf") if peak_at_fp > 0 else 0.0
    return peak_at_fp / competitor


@st.composite
def windows(draw):
    """A z-like window: noise, a pulse response in noise, a constant or
    all zeros; from nothing at all up to a 6 s window of 10 ms samples."""
    size = draw(st.one_of(st.integers(0, 12), st.integers(4, 600)))
    kind = draw(st.sampled_from(("noise", "pulse", "constant", "zero")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "zero":
        return np.zeros(size)
    if kind == "constant":
        return np.full(size, draw(st.floats(-1e9, 1e9)))
    x = rng.normal(draw(st.floats(0, 1e7)), draw(st.floats(1e-3, 1e6)), size)
    if kind == "pulse":
        t = np.arange(size) * 0.01
        x += draw(st.floats(0, 1e6)) * np.sin(
            2 * np.pi * draw(st.sampled_from((2.0, 5.0, 6.0))) * t)
    return x


spacings = st.sampled_from((0.010, 0.012))
frequencies = st.one_of(st.sampled_from((2.0, 5.0, 6.0)),
                        st.floats(0.5, 20.0))


@given(x=windows(), dt=spacings, fp=frequencies,
       band=st.tuples(st.floats(0, 60), st.floats(0, 60)),
       bins=st.tuples(st.integers(0, 300), st.integers(0, 300)))
def test_spectrum_reads_what_the_free_functions_read(x, dt, fp, band, bins):
    spectrum = Spectrum(x, dt)
    freqs, mags = _ref_fft_magnitude(x, dt)
    assert spectrum.freqs.tolist() == freqs.tolist()
    assert spectrum.mags.tolist() == mags.tolist()
    assert spectrum.at(fp) == _ref_magnitude_at(freqs, mags, fp)
    assert spectrum.peak_between(*band) == _ref_band_peak(freqs, mags, *band)
    if freqs.size:  # a band whose endpoints sit exactly on two bins
        on_bins = [float(freqs[k % freqs.size]) for k in bins]
        assert spectrum.peak_between(*on_bins) == \
            _ref_band_peak(freqs, mags, *on_bins)
    eta = _ref_elasticity_metric(x, dt, fp)
    assert spectrum.eta(fp) == eta
    assert elasticity_metric(x, dt, fp) == eta


@given(x=windows(), dt=spacings, fp=frequencies)
def test_detectors_read_one_spectrum_like_the_old_two(x, dt, fp):
    """Both detectors read the window they are given exactly as the
    per-frequency ``elasticity_metric`` calls they used to make."""
    assert ElasticityDetector.evaluate(x, dt, fp) == DetectorSample(
        _ref_elasticity_metric(x, dt, fp),
        _ref_magnitude_at(*_ref_fft_magnitude(x, dt), fp))
    eta_c = _ref_elasticity_metric(x, dt, COMPETITIVE_FREQUENCY)
    eta_d = _ref_elasticity_metric(x, dt, DELAY_FREQUENCY)
    assert PulserDetector.evaluate(x, dt) == (
        None if max(eta_c, eta_d) < THRESHOLD else
        "competitive" if eta_c >= eta_d else "delay")


# --------------------------------------------------------------------- #
# Differential: the cached frequency plan against the axis rebuilt and
# scanned per reading, as every spectrum used to.
# --------------------------------------------------------------------- #
@st.composite
def realised_spacings(draw):
    """A spacing as the simulator realises one: the gap between two tick
    times, each a running sum of ``dt``, so it carries float noise
    (0.012000000000000455 where 0.012 was meant)."""
    dt = draw(st.sampled_from((0.001, 0.002, 0.004, 0.01)))
    ticks = draw(st.integers(1, 6))
    start = draw(st.integers(0, 2000))
    clock = [0.0]
    for _ in range(start + ticks):
        clock.append(clock[-1] + dt)
    return clock[-1] - clock[-1 - ticks]


def _scan_readings(mags, size, dt, fp, band):
    """``at(fp)``, ``peak_between(*band)`` and ``eta(fp)`` read off an
    axis rebuilt for the one reading: ``rfftfreq``, ``argmin`` and a
    boolean mask."""
    if size < 4:
        return 0.0, 0.0, 0.0
    freqs = np.fft.rfftfreq(size, d=dt)

    def at(f):
        return float(mags[int(np.argmin(np.abs(freqs - f)))])

    def peak(low, high):
        mask = (freqs > low) & (freqs < high)
        return float(mags[mask].max()) if mask.any() else 0.0

    eta = 0.0
    if size >= max(8, int(round(2.0 / (fp * dt)))):
        resolution = freqs[1] - freqs[0]
        competitor = peak(fp + 1.5 * resolution, 2.0 * fp - 0.5 * resolution)
        if competitor > 0.0:
            eta = at(fp) / competitor
        elif at(fp) > 0:
            eta = float("inf")
    return at(fp), peak(*band), eta


@given(size=st.one_of(st.integers(0, 8), st.integers(0, 600)),
       dt=realised_spacings(), fp=st.sampled_from((2.0, 5.0, 6.0)),
       band=st.one_of(
           st.tuples(st.floats(0, 60), st.floats(0, 60)),
           # empty: inverted, or narrower than one bin
           st.tuples(st.just(5.0), st.just(5.0)),
           st.tuples(st.just(30.0), st.just(10.0))),
       seed=st.integers(0, 2 ** 32 - 1))
def test_the_cached_frequency_plan_reads_what_a_scan_reads(size, dt, fp,
                                                          band, seed):
    rng = np.random.default_rng(seed)
    # Two windows of one shape: the second reads the plan the first filled.
    for _ in range(2):
        spectrum = Spectrum(rng.normal(0.0, 1.0, size), dt)
        assert (spectrum.at(fp), spectrum.peak_between(*band),
                spectrum.eta(fp)) == \
            _scan_readings(spectrum.mags, size, dt, fp, band)
        if size >= 4:
            assert spectrum.freqs.tolist() == \
                np.fft.rfftfreq(size, d=dt).tolist()


def test_the_shared_frequency_axis_is_read_only():
    first = Spectrum(sine_at(FP), SAMPLE_INTERVAL)
    second = Spectrum(sine_at(6.0), SAMPLE_INTERVAL)
    assert first.freqs is second.freqs
    with pytest.raises(ValueError):
        first.freqs[1] = 1.0
    assert first.freqs[1] == pytest.approx(1.0 / 5.0)


class TestElasticityMetric:
    def test_high_for_oscillation_at_fp(self):
        eta = elasticity_metric(sine_at(FP, noise=0.05), SAMPLE_INTERVAL, FP)
        assert eta > 5.0

    def test_low_for_white_noise(self):
        noise = RNG.normal(0, 1.0, size=500)
        eta = elasticity_metric(noise, SAMPLE_INTERVAL, FP)
        assert eta < 2.0

    def test_low_for_oscillation_elsewhere(self):
        eta = elasticity_metric(sine_at(7.5, noise=0.05), SAMPLE_INTERVAL, FP)
        assert eta < 1.0

    def test_scale_invariance(self):
        signal = sine_at(FP, noise=0.1, seed=3)
        eta1 = elasticity_metric(signal, SAMPLE_INTERVAL, FP)
        eta2 = elasticity_metric(signal * 1000.0, SAMPLE_INTERVAL, FP)
        assert eta1 == pytest.approx(eta2, rel=1e-9)

    def test_too_few_samples(self):
        assert elasticity_metric([1.0, 2.0, 3.0], SAMPLE_INTERVAL, FP) == 0.0

    def test_mixture_scales_with_elastic_amplitude(self):
        noise = RNG.normal(0, 1.0, size=500)
        weak = elasticity_metric(noise + 0.3 * sine_at(FP, seed=1),
                                 SAMPLE_INTERVAL, FP)
        strong = elasticity_metric(noise + 3.0 * sine_at(FP, seed=1),
                                   SAMPLE_INTERVAL, FP)
        assert strong > weak


def test_white_noise_false_alarms_follow_the_closed_form():
    """On white noise every bin's squared magnitude is an independent
    exponential, so eta exceeds theta with probability
    K! Gamma(theta^2 + 1) / Gamma(K + theta^2 + 1) over K competitor bins
    (1/24 at theta = 1; 1/17,550 at the paper's theta = 2)."""
    windows, samples = 50_000, 500
    spectrum = Spectrum(np.zeros(samples), SAMPLE_INTERVAL)
    resolution = spectrum.freqs[1] - spectrum.freqs[0]
    band = ((spectrum.freqs > FP + 1.5 * resolution)
            & (spectrum.freqs < 2.0 * FP - 0.5 * resolution))
    k = int(band.sum())
    assert k == 23

    def exceed(theta):
        t2 = theta * theta
        return math.exp(math.lgamma(k + 1) + math.lgamma(t2 + 1)
                        - math.lgamma(k + t2 + 1))

    assert 1.0 / exceed(2.0) == pytest.approx(17_550)
    rng = np.random.default_rng(2022)
    etas = np.array([Spectrum(rng.normal(size=samples), SAMPLE_INTERVAL)
                     .eta(FP) for _ in range(windows)])
    for theta in (1.0, 1.5):
        p = exceed(theta)
        sigma = math.sqrt(windows * p * (1.0 - p))
        assert abs(int((etas >= theta).sum()) - windows * p) < 5 * sigma



def test_pulse_sent_is_the_share_of_the_scheduled_pulse():
    """An unclipped ``base + offset`` series carries the whole pulse; a
    pacing floor that cuts the down-pulse carries less; three samples
    cannot be read."""
    pulse, mu, base = AsymmetricSinusoidPulse(FP), 96.0, 4.0
    times = np.arange(0.0, 10.0, SAMPLE_INTERVAL)
    rates = base + np.array([pulse.offset(t, mu) for t in times])
    magnitude, ratio = pulse_sent(times, rates, pulse, mu)
    assert magnitude > 0.0
    assert ratio == pytest.approx(1.0, abs=1e-9)
    clipped = np.maximum(rates, 0.02 * mu)
    assert 0.0 < pulse_sent(times, clipped, pulse, mu)[1] < 1.0
    assert pulse_sent(times[:3], rates[:3], pulse, mu) == (0.0, 0.0)

class TestElasticityDetector:
    def test_classifies_elastic(self):
        sample = ElasticityDetector.evaluate(sine_at(FP, noise=0.1),
                                             SAMPLE_INTERVAL, FP)
        assert sample.eta >= THRESHOLD
        assert sample.magnitude == pytest.approx(0.5, rel=0.1)

    def test_classifies_inelastic(self):
        sample = ElasticityDetector.evaluate(RNG.normal(0, 1.0, size=500),
                                             SAMPLE_INTERVAL, FP)
        assert sample.eta < THRESHOLD

    # Nimbus cuts the window the detector reads: the trailing FFT window at
    # the realised spacing.
    def test_uses_trailing_window_only(self):
        old = RNG.normal(0, 1.0, size=1000)
        recent = sine_at(FP, noise=0.05)
        window = _window(np.concatenate([old, recent]), SAMPLE_INTERVAL)
        assert window.tolist() == recent.tolist()
        assert ElasticityDetector.evaluate(window, SAMPLE_INTERVAL,
                                           FP).eta >= THRESHOLD

    def test_window_samples(self):
        assert len(_window(np.zeros(500), 0.01)) == 500
        assert len(_window(np.zeros(500), 0.012)) == 417
        # A series spanning less than the window is read whole.
        assert len(_window(np.zeros(400), 0.012)) == 400

    def test_a_window_shorter_than_one_sample_reads_nothing(self):
        # Regression: ``x[-0:]`` used to read the whole series, so a window
        # shorter than one sample classified 6 s of a 5 Hz sine as elastic
        # with eta ~ 1.6e15.
        window = _window(sine_at(FP, duration=6.0), 12.0)
        assert len(window) == 0
        assert ElasticityDetector.evaluate(window, 12.0, FP) == \
            DetectorSample(eta=0.0, magnitude=0.0)


class TestPulserDetector:
    def test_detects_competitive_frequency(self):
        assert PulserDetector.evaluate(sine_at(5.0, noise=0.05),
                                       SAMPLE_INTERVAL) == "competitive"

    def test_detects_delay_frequency(self):
        assert PulserDetector.evaluate(sine_at(6.0, noise=0.05),
                                       SAMPLE_INTERVAL) == "delay"

    def test_no_pulser(self):
        assert PulserDetector.evaluate(RNG.normal(0, 1.0, size=500),
                                       SAMPLE_INTERVAL) is None

    def test_a_window_shorter_than_one_sample_reads_nothing(self):
        window = _window(sine_at(FP, duration=6.0), 12.0)
        assert len(window) == 0
        assert PulserDetector.evaluate(window, 12.0) is None


class TestCrossCorrelationStrawman:
    def test_detects_correlated_response(self):
        s = sine_at(FP, seed=1)
        z = -np.roll(s, 5) + RNG.normal(0, 0.05, size=s.size)
        peak, elastic = cross_correlation_detector(s, z)
        assert elastic and peak > 0.5

    def test_rejects_uncorrelated(self):
        s = sine_at(FP, seed=1)
        z = RNG.normal(0, 1.0, size=s.size)
        _, elastic = cross_correlation_detector(s, z)
        assert not elastic

    def test_short_input(self):
        peak, elastic = cross_correlation_detector([1, 2], [3, 4])
        assert peak == 0.0 and not elastic
