"""Cross-traffic rate estimator (Eq. 1) and its sampled time series."""

from collections import deque

import numpy as np
import pytest

from repro.core.estimator import CrossTrafficEstimator, estimate_cross_traffic
from repro.simulator.measurement import FlowMeasurement
from repro.simulator.units import MSS_BYTES, mbps_to_bytes_per_sec

MU = mbps_to_bytes_per_sec(96)


class _Rates:
    """A measurement whose paired (S, R) reading is given outright."""

    def __init__(self, send_rate: float, delivery_rate: float) -> None:
        self.rates = (send_rate, delivery_rate)

    def paired_rates(self, now):
        return self.rates


class TestEquationOne:
    def test_no_cross_traffic(self):
        # R == S means the flow gets everything it sends: z = mu - S... no:
        # z = mu*S/R - S = mu - S when R == S and the link is saturated.
        # With S == mu, z must be zero.
        assert estimate_cross_traffic(MU, MU, MU) == pytest.approx(0.0)

    def test_half_share(self):
        # The flow receives half of what would be its saturated share:
        # S = mu/2 delivered at R = mu/2 with the link full means the cross
        # traffic fills the other half.
        z = estimate_cross_traffic(MU, MU / 2, MU / 2)
        assert z == pytest.approx(MU / 2)

    def test_proportional_share(self):
        # S / (S + z_true) == R / mu  =>  the estimator inverts exactly.
        z_true = 0.3 * MU
        s = 0.5 * MU
        r = MU * s / (s + z_true)
        assert estimate_cross_traffic(MU, s, r) == pytest.approx(z_true, rel=1e-9)

    def test_clamped_to_physical_range(self):
        assert estimate_cross_traffic(MU, MU, 0.01 * MU) <= MU
        assert estimate_cross_traffic(MU, 0.1 * MU, MU) >= 0.0

    def test_degenerate_inputs(self):
        assert estimate_cross_traffic(MU, 0.0, MU) == 0.0
        assert estimate_cross_traffic(MU, MU, 0.0) == 0.0

    def test_invalid_mu(self):
        with pytest.raises(ValueError):
            estimate_cross_traffic(0.0, 1.0, 1.0)


class TestCrossTrafficEstimator:
    def _measurement_at_half_link(self) -> FlowMeasurement:
        """Packets sent and delivered at mu/2 with a constant 50 ms RTT.

        With the link saturated, S == R == mu/2 implies (Eq. 1) that the
        cross traffic occupies the other half of the link.
        """
        m = FlowMeasurement()
        gap = MSS_BYTES / (0.5 * MU)
        for i in range(200):
            send_t = i * gap
            m.on_send(send_t, MSS_BYTES)
            m.on_ack(send_t + 0.05, MSS_BYTES, 0.05, 0.0)
        return m

    def test_estimates_cross_share(self):
        est = CrossTrafficEstimator(MU, sample_interval=0.01)
        m = self._measurement_at_half_link()
        now = 200 * MSS_BYTES / (0.5 * MU)
        z = est.maybe_sample(now, m)
        # The flow receives half the link, so the cross traffic is ~half.
        assert z == pytest.approx(0.5 * MU, rel=0.15)

    def test_series_retention(self):
        est = CrossTrafficEstimator(MU, sample_interval=0.01, history=1.0)
        for i in range(500):
            est.maybe_sample(i * 0.01, _Rates(0.5 * MU, 0.4 * MU))
        assert len(est) <= est.maxlen
        assert est.z_series(0.5).shape[0] == 50

    def test_add_sample_and_latest(self):
        est = CrossTrafficEstimator(MU)
        assert est.maybe_sample(0.0, _Rates(0.5 * MU, 0.25 * MU)) == \
            pytest.approx(MU)
        z, s, r = (est.z_series()[-1], est.s_series()[-1],
                   est.r_series()[-1])
        assert s == pytest.approx(0.5 * MU)
        assert r == pytest.approx(0.25 * MU)
        # The raw Eq. (1) value (1.5 mu) exceeds the link rate, so the
        # estimate is clamped to mu.
        assert z == pytest.approx(MU)

    def test_latest_empty(self):
        est = CrossTrafficEstimator(MU)
        assert len(est) == 0
        for series in (est.z_series(), est.s_series(), est.r_series()):
            assert series.shape == (0,)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CrossTrafficEstimator(0.0)
        with pytest.raises(ValueError):
            CrossTrafficEstimator(MU, sample_interval=0.0)

    def test_series_are_aligned(self):
        est = CrossTrafficEstimator(MU)
        for i in range(20):
            est.maybe_sample(i * 0.01, _Rates(0.5 * MU, 0.5 * MU))
        assert len(est.z_series()) == len(est.s_series()) == len(est.r_series())
        assert len(est.times()) == len(est.z_series())
        assert np.all(np.diff(est.times()) > 0)


class TestSeriesTail:
    """``*_series(duration)`` / ``times(duration)`` read the newest
    ``sample_count(duration)`` samples, oldest first, and nothing else."""

    INTERVAL = 0.01

    def _filled(self, samples: int, history: float = 1.0):
        est = CrossTrafficEstimator(MU, sample_interval=self.INTERVAL,
                                    history=history)
        for i in range(samples):
            est.maybe_sample(i * self.INTERVAL,
                             _Rates((i + 1.0) * 1e3, 0.4 * MU))
        return est, [(i + 1.0) * 1e3 for i in range(samples)][-est.maxlen:]

    def test_duration_rounding_to_zero_samples_is_empty(self):
        # Regression: ``arr[-0:]`` used to hand back the whole series.
        est, _ = self._filled(30)
        for series in (est.z_series, est.s_series, est.r_series, est.times):
            tail = series(self.INTERVAL / 2 - 1e-6)
            assert tail.shape == (0,) and tail.dtype == np.float64

    def test_none_returns_everything(self):
        est, sent = self._filled(30)
        assert est.s_series().tolist() == sent
        assert est.s_series(None).tolist() == sent

    def test_duration_longer_than_history_returns_everything(self):
        est, sent = self._filled(30)
        assert est.s_series(10.0).tolist() == sent

    def test_tail_is_the_newest_samples_oldest_first(self):
        est, sent = self._filled(30)
        assert est.s_series(0.07).tolist() == sent[-7:]
        assert est.times(0.07).tolist() == [i * self.INTERVAL
                                            for i in range(23, 30)]

    def test_exactly_full_deque(self):
        est, sent = self._filled(250, history=1.0)
        assert len(est) == est.maxlen == 100 and len(sent) == 100
        assert est.s_series().tolist() == sent
        assert est.s_series(1.0).tolist() == sent
        assert est.s_series(0.25).tolist() == sent[-25:]
        assert est.s_series(0.0).tolist() == []

    def test_empty_estimator(self):
        est = CrossTrafficEstimator(MU)
        assert est.z_series().shape == (0,)
        assert est.z_series(5.0).shape == (0,)

    def test_result_is_a_private_contiguous_copy(self):
        est, sent = self._filled(30)
        tail = est.s_series(0.1)
        assert tail.flags["C_CONTIGUOUS"] and tail.flags["OWNDATA"]
        tail[:] = 0.0
        assert est.s_series(0.1).tolist() == sent[-10:]


class TestRowStore:
    """The four series against ``deque(maxlen)`` oracles kept here, read
    after every sample across several compactions of the row store.  Every
    array read is then overwritten, so a read that handed out a view of the
    store would corrupt the next one."""

    DURATIONS = (None, 0.0, 0.07, 5.0, 60.0)

    @pytest.mark.parametrize("history", [0.02, 0.05, 1.0])
    def test_series_equal_bounded_deques(self, history):
        est = CrossTrafficEstimator(MU, sample_interval=0.01,
                                    history=history)
        oracle = {name: deque(maxlen=est.maxlen)
                  for name in ("z", "s", "r", "t")}
        # The store holds 2 * maxlen columns, so 4 * maxlen + 17 samples
        # fill it and move the retained samples to the front at least twice.
        now = 0.0
        for i in range(4 * est.maxlen + 17):
            s, r = (i + 1.0) * 1e3, (i % 7 + 1.0) * 0.1 * MU
            z = est.maybe_sample(now, _Rates(s, r))
            for name, value in zip("zsrt", (z, s, r, now)):
                oracle[name].append(value)
            assert len(est) == len(oracle["z"])
            for duration in self.DURATIONS:
                count = (len(oracle["z"]) if duration is None
                         else est.sample_count(duration))
                for name, series in (("z", est.z_series),
                                     ("s", est.s_series),
                                     ("r", est.r_series),
                                     ("t", est.times)):
                    expected = list(oracle[name])[-count:] if count else []
                    read = series(duration)
                    assert read.tolist() == expected
                    read[:] = -1.0
            now += 0.01
