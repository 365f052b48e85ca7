"""Multi-flow coordination primitives: election and watcher filtering (§6)."""

import math
import random

import pytest

from repro.core.multiflow import PulserElection, WatcherRateFilter


class TestPulserElection:
    def test_probability_formula(self):
        election = PulserElection(kappa=1.0, decision_interval=0.01,
                                  fft_duration=5.0)
        # Eq. 5: p = kappa * tau / FFT * (R / mu).
        assert election.election_probability(50.0, 100.0) == pytest.approx(
            1.0 * 0.01 / 5.0 * 0.5)

    def test_probability_bounded(self):
        election = PulserElection(kappa=1e6)
        assert election.election_probability(1.0, 1.0) <= 1.0
        assert election.election_probability(0.0, 1.0) == 0.0
        assert election.election_probability(1.0, 0.0) == 0.0

    def test_expected_pulsers_equals_kappa(self):
        """Flows carrying ``share`` of the link, each rolling once per
        decision interval, elect ``kappa * share`` pulsers per FFT window."""
        election = PulserElection(kappa=0.8)
        mu = 100.0
        for share in (1.0, 0.5):
            per_window = (election.election_probability(share * mu, mu)
                          * election.fft_duration
                          / election.decision_interval)
            assert per_window == pytest.approx(election.kappa * share)

    def test_one_roll_per_call_at_election_probability(self):
        """Each call draws once from the RNG and elects when the draw falls
        below ``election_probability``; the caller spaces the calls."""
        election = PulserElection(kappa=250.0, decision_interval=0.01,
                                  fft_duration=5.0, rng=random.Random(3))
        p = election.election_probability(80.0, 100.0)
        assert p == pytest.approx(0.4)
        twin = random.Random(3)
        rolls = [election.should_become_pulser(80.0, 100.0)
                 for _ in range(1000)]
        assert rolls == [twin.random() < p for _ in range(1000)]
        assert election.rng.getstate() == twin.getstate()

    def test_empirical_election_rate(self):
        election = PulserElection(kappa=1.0, decision_interval=0.01,
                                  fft_duration=5.0, rng=random.Random(1))
        elections = 0
        trials = 50_000
        for _ in range(trials):
            if election.should_become_pulser(100.0, 100.0):
                elections += 1
        # Expected once per FFT window (500 decisions) => ~100 over 50k.
        assert elections == pytest.approx(trials / 500, rel=0.35)

    def test_demotion_probability(self):
        election = PulserElection(demotion_probability=1.0,
                                  rng=random.Random(0))
        assert election.should_demote() is True
        election = PulserElection(demotion_probability=0.0,
                                  rng=random.Random(0))
        assert election.should_demote() is False

    def test_invalid_kappa(self):
        with pytest.raises(ValueError):
            PulserElection(kappa=0.0)


class TestWatcherRateFilter:
    def test_passes_dc(self):
        filt = WatcherRateFilter(cutoff_frequency=5.0, update_interval=0.01)
        out = 0.0
        for _ in range(1000):
            out = filt.filter(100.0)
        assert out == pytest.approx(100.0, rel=1e-3)

    def test_attenuates_pulse_frequency(self):
        filt = WatcherRateFilter(cutoff_frequency=5.0, update_interval=0.01)
        outputs = []
        for i in range(2000):
            t = i * 0.01
            outputs.append(filt.filter(100.0 + 50.0 * math.sin(2 * math.pi
                                                               * 5.0 * t)))
        tail = outputs[1000:]
        swing = (max(tail) - min(tail)) / 2.0
        # A first-order filter at its cutoff attenuates to ~0.7; at 5 Hz with
        # a 5 Hz cutoff it should clearly reduce the 50-unit swing.
        assert swing < 0.75 * 50.0

    def test_passes_slow_variation(self):
        filt = WatcherRateFilter(cutoff_frequency=5.0, update_interval=0.01)
        outputs = []
        for i in range(4000):
            t = i * 0.01
            outputs.append(filt.filter(100.0 + 50.0 * math.sin(2 * math.pi
                                                               * 0.05 * t)))
        tail = outputs[2000:]
        swing = (max(tail) - min(tail)) / 2.0
        assert swing > 0.9 * 50.0

    def test_reset(self):
        filt = WatcherRateFilter(cutoff_frequency=5.0)
        filt.filter(100.0)
        filt.reset()
        assert filt.filter(0.0) == pytest.approx(0.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            WatcherRateFilter(cutoff_frequency=0.0)
        with pytest.raises(ValueError):
            WatcherRateFilter(cutoff_frequency=5.0, update_interval=0.0)
