"""Analysis helpers: metrics, classification accuracy, FCT binning."""

import numpy as np
import pytest

from repro.analysis import (
    MODE_COMPETITIVE,
    MODE_DELAY,
    bin_label,
    cdf,
    classification_accuracy,
    fct_by_size,
    jain_fairness,
    mode_fraction,
    normalized_p95,
    percentile,
)


class TestMetrics:
    def test_percentile(self):
        assert percentile(range(101), 95) == pytest.approx(95.0)
        assert percentile([], 95) == 0.0

    def test_cdf_monotone(self):
        values, probs = cdf([5, 1, 3, 2, 4])
        assert np.all(np.diff(values) >= 0)
        assert np.all(np.diff(probs) >= 0)
        assert probs[-1] == pytest.approx(1.0)

    def test_cdf_empty(self):
        values, probs = cdf([])
        assert values.size == 0 and probs.size == 0

    def test_jain_equal_shares(self):
        assert jain_fairness([10, 10, 10, 10]) == pytest.approx(1.0)

    def test_jain_single_hog(self):
        assert jain_fairness([100, 0, 0, 0]) == pytest.approx(0.25)

    def test_jain_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            rates = rng.uniform(0, 100, size=5)
            fairness = jain_fairness(rates)
            assert 1.0 / 5 - 1e-9 <= fairness <= 1.0 + 1e-9

    def test_jain_empty(self):
        assert jain_fairness([]) == 0.0


class TestClassificationAccuracy:
    def test_perfect(self):
        times = np.arange(0, 10, 0.1)
        modes = [MODE_COMPETITIVE if t >= 5 else MODE_DELAY for t in times]
        report = classification_accuracy(times, modes,
                                         elastic_truth=lambda t: t >= 5)
        assert report.accuracy == pytest.approx(1.0)

    def test_inverted(self):
        times = np.arange(0, 10, 0.1)
        modes = [MODE_DELAY if t >= 5 else MODE_COMPETITIVE for t in times]
        report = classification_accuracy(times, modes,
                                         elastic_truth=lambda t: t >= 5)
        assert report.accuracy == pytest.approx(0.0)

    def test_warmup_excluded(self):
        times = np.arange(0, 10, 0.1)
        modes = [MODE_DELAY] * len(times)
        report = classification_accuracy(times, modes,
                                         elastic_truth=lambda t: False,
                                         warmup=5.0)
        assert report.samples == pytest.approx(len(times) / 2, abs=2)

    def test_none_modes_skipped(self):
        times = np.arange(0, 10, 0.1)
        modes = [None] * len(times)
        report = classification_accuracy(times, modes,
                                         elastic_truth=lambda t: True)
        assert report.samples == 0
        assert report.accuracy == 0.0

    def test_settle_grace_period(self):
        times = np.arange(0, 20, 0.1)
        # Truth flips at t=10; the detector follows 3 s later.
        modes = [MODE_COMPETITIVE if t >= 13 else MODE_DELAY for t in times]
        strict = classification_accuracy(times, modes,
                                         elastic_truth=lambda t: t >= 10)
        lenient = classification_accuracy(times, modes,
                                          elastic_truth=lambda t: t >= 10,
                                          settle=5.0)
        assert lenient.accuracy > strict.accuracy
        assert lenient.accuracy == pytest.approx(1.0)

    def test_mode_fraction(self):
        modes = [MODE_DELAY, MODE_DELAY, MODE_COMPETITIVE, None]
        assert mode_fraction(modes, MODE_DELAY) == pytest.approx(2 / 3)
        assert mode_fraction([], MODE_DELAY) == 0.0


class _Record:
    def __init__(self, size_bytes, fct):
        self.size_bytes = size_bytes
        self.fct = fct


class TestFct:
    def test_bin_label(self):
        assert bin_label(15e3) == "15KB"
        assert bin_label(1.5e6) == "1.5MB"
        assert bin_label(150e6) == "150MB"

    def test_binning(self):
        records = [_Record(10e3, 0.1), _Record(12e3, 0.2),
                   _Record(100e3, 1.0), _Record(10e6, 5.0),
                   _Record(1e9, 30.0)]
        bins = fct_by_size(records)
        assert bins["15KB"].count == 2
        assert bins["150KB"].count == 1
        assert bins["15MB"].count == 1
        assert bins["150MB"].count == 1

    def test_unfinished_flows_ignored(self):
        records = [_Record(10e3, None), _Record(10e3, 0.5)]
        bins = fct_by_size(records)
        assert bins["15KB"].count == 1

    def test_p95(self):
        records = [_Record(10e3, float(i)) for i in range(100)]
        bins = fct_by_size(records)
        assert bins["15KB"].p95_fct == pytest.approx(94.05, rel=0.01)

    def test_normalized_p95(self):
        nimbus = {"15KB": fct_by_size([_Record(10e3, 1.0)])["15KB"]}
        cubic = {"15KB": fct_by_size([_Record(10e3, 2.0)])["15KB"]}
        ratios = normalized_p95({"nimbus": nimbus, "cubic": cubic}, "nimbus")
        assert ratios["cubic"]["15KB"] == pytest.approx(2.0)
        assert ratios["nimbus"]["15KB"] == pytest.approx(1.0)

    def test_normalized_requires_baseline(self):
        with pytest.raises(KeyError):
            normalized_p95({"cubic": {}}, "nimbus")
