"""Ablations of the Nimbus design choices the docstrings of
``repro/core/elasticity.py`` and ``repro/core/pulses.py`` call out (§4 of
the paper): FFT window length, detection threshold, pulse shape, and the
rejected time-domain cross-correlation detector."""

import numpy as np

from conftest import BENCH_DT

from repro.core.elasticity import cross_correlation_detector, elasticity_metric
from repro.core.pulses import AsymmetricSinusoidPulse, SymmetricSinusoidPulse
from repro.experiments.accuracy_scenarios import run_case


def _signal(frequency=5.0, noise=1.0, duration=5.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(0, duration, 0.01)
    return np.sin(2 * np.pi * frequency * t) + rng.normal(0, noise, t.size)


def test_ablation_fft_window():
    """Longer FFT windows separate elastic from inelastic more cleanly."""
    margins = {}
    for duration in (1.0, 5.0):
        elastic = elasticity_metric(_signal(duration=duration), 0.01, 5.0)
        inelastic = elasticity_metric(
            np.random.default_rng(1).normal(0, 1.0, int(duration / 0.01)),
            0.01, 5.0)
        margins[duration] = elastic / max(inelastic, 1e-9)
    assert margins[5.0] > margins[1.0]


def test_ablation_threshold():
    """eta_thresh = 2 separates a strongly elastic signal from noise."""
    elastic = elasticity_metric(_signal(noise=0.5), 0.01, 5.0)
    inelastic = elasticity_metric(
        np.random.default_rng(2).normal(0, 1.0, 500), 0.01, 5.0)
    assert inelastic < 2.0 <= elastic


def test_ablation_pulse_shape():
    """The asymmetric pulse needs only a third of the base rate a symmetric
    pulse needs, while achieving the same detection accuracy."""
    asym = run_case(
        "nimbus", kind="elastic", duration=30.0, dt=BENCH_DT,
        pulse_shape_factory=AsymmetricSinusoidPulse)
    sym = run_case(
        "nimbus", kind="elastic", duration=30.0, dt=BENCH_DT,
        pulse_shape_factory=SymmetricSinusoidPulse)
    assert AsymmetricSinusoidPulse(5.0, 0.25).min_base_fraction() < \
        SymmetricSinusoidPulse(5.0, 0.25).min_base_fraction()
    assert asym["extra"]["mode_accuracy"] >= \
        sym["extra"]["mode_accuracy"] - 0.2


def test_ablation_crosscorr():
    """The time-domain cross-correlation strawman is far less selective than
    the frequency-domain metric when the response is delayed and noisy."""
    rng = np.random.default_rng(3)
    t = np.arange(0, 5.0, 0.01)
    s = np.sin(2 * np.pi * 5.0 * t)
    # Inelastic z: pure noise. The strawman's false-positive rate is the
    # fraction of noise realisations whose peak correlation crosses the
    # detection threshold; the FFT metric stays firmly below its own.
    cc_fp = 0
    fft_fp = 0
    for i in range(20):
        z = rng.normal(0, 1.0, t.size)
        _, flagged = cross_correlation_detector(s, z, threshold=0.15)
        cc_fp += int(flagged)
        fft_fp += int(elasticity_metric(z, 0.01, 5.0) >= 2.0)
    assert fft_fp <= cc_fp
