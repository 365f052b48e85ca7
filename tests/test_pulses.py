"""Pulse shapes: zero mean, amplitudes, minimum base rate (Fig. 7)."""

import math

import numpy as np
import pytest

from repro.core.pulses import (
    AsymmetricSinusoidPulse,
    SymmetricSinusoidPulse,
)

SHAPES = [AsymmetricSinusoidPulse, SymmetricSinusoidPulse]


def integrate(pulse, cycles=1, samples_per_cycle=10_000):
    ts = np.linspace(0, cycles * pulse.period, cycles * samples_per_cycle,
                     endpoint=False)
    values = np.array([pulse.offset_fraction(t) for t in ts])
    return values, ts


@pytest.mark.parametrize("shape", SHAPES)
def test_zero_mean_over_period(shape):
    pulse = shape(frequency=5.0, pulse_fraction=0.25)
    values, _ = integrate(pulse)
    assert abs(values.mean()) < 1e-3


@pytest.mark.parametrize("shape", SHAPES)
def test_periodicity(shape):
    pulse = shape(frequency=5.0, pulse_fraction=0.25)
    for t in (0.01, 0.07, 0.13):
        assert pulse.offset_fraction(t) == pytest.approx(
            pulse.offset_fraction(t + pulse.period), abs=1e-9)


class TestAsymmetricPulse:
    def test_peak_amplitude(self):
        pulse = AsymmetricSinusoidPulse(frequency=5.0, pulse_fraction=0.25)
        values, _ = integrate(pulse)
        assert values.max() == pytest.approx(0.25, rel=1e-3)

    def test_negative_amplitude_is_one_third(self):
        pulse = AsymmetricSinusoidPulse(frequency=5.0, pulse_fraction=0.25)
        values, _ = integrate(pulse)
        assert values.min() == pytest.approx(-0.25 / 3, rel=1e-3)

    def test_positive_quarter_negative_three_quarters(self):
        pulse = AsymmetricSinusoidPulse(frequency=5.0, pulse_fraction=0.25)
        values, ts = integrate(pulse)
        quarter = pulse.period / 4
        assert np.all(values[ts % pulse.period < quarter - 1e-6] >= -1e-12)
        assert np.all(values[ts % pulse.period > quarter + 1e-6] <= 1e-12)

    def test_min_base_fraction(self):
        pulse = AsymmetricSinusoidPulse(frequency=5.0, pulse_fraction=0.25)
        # The sender only needs mu/12 of base rate to use a mu/4 pulse.
        assert pulse.min_base_fraction() == pytest.approx(0.25 / 3)

    def test_burst_size_matches_paper(self):
        # Burst above the mean is mu*T/(8*pi) ~ 4% of a BDP when T == RTT.
        mu = 12e6
        pulse = AsymmetricSinusoidPulse(frequency=5.0, pulse_fraction=0.25)
        values, ts = integrate(pulse)
        dt = ts[1] - ts[0]
        burst = float(values[values > 0].sum() * dt * mu)
        assert burst == pytest.approx(mu * pulse.period / (8 * math.pi),
                                      rel=0.01)

    def test_offset_scales_with_mu(self):
        pulse = AsymmetricSinusoidPulse(frequency=5.0, pulse_fraction=0.25)
        assert pulse.offset(0.01, 2e6) == pytest.approx(
            2 * pulse.offset(0.01, 1e6))


class TestOtherShapes:
    def test_symmetric_requires_full_amplitude_base(self):
        pulse = SymmetricSinusoidPulse(frequency=5.0, pulse_fraction=0.25)
        assert pulse.min_base_fraction() == pytest.approx(0.25)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AsymmetricSinusoidPulse(frequency=0.0)
        with pytest.raises(ValueError):
            AsymmetricSinusoidPulse(frequency=5.0, pulse_fraction=0.0)


def test_harmonics_spare_detection_band():
    """The asymmetric pulse's harmonics fall at multiples of fp, outside the
    (fp, 2fp) band used by the elasticity metric."""
    pulse = AsymmetricSinusoidPulse(frequency=5.0, pulse_fraction=0.25)
    ts = np.arange(0, 5.0, 0.01)
    signal = np.array([pulse.offset_fraction(t) for t in ts])
    spectrum = np.abs(np.fft.rfft(signal - signal.mean())) / len(signal)
    freqs = np.fft.rfftfreq(len(signal), d=0.01)
    peak_fp = spectrum[np.argmin(np.abs(freqs - 5.0))]
    in_band = (freqs > 5.6) & (freqs < 9.4)
    assert spectrum[in_band].max() < 0.2 * peak_fp
