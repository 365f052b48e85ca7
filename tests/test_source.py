"""Application sources: backlogged, finite, paced, Poisson, video."""

import math

import pytest

from repro.simulator.source import BackloggedSource, FiniteSource, PacedSource
from repro.traffic.poisson import PoissonSource
from repro.traffic.video import video_1080p, video_4k


class TestBacklogged:
    def test_always_available(self):
        src = BackloggedSource()
        assert math.isinf(src.available(0.0))
        src.consume(1e9, 0.0)
        assert math.isinf(src.available(1.0))

    def test_never_finished(self):
        assert not BackloggedSource().finished


class TestFinite:
    def test_initial_availability(self):
        src = FiniteSource(10_000)
        assert src.available(0.0) == pytest.approx(10_000)

    def test_consume_reduces_availability(self):
        src = FiniteSource(10_000)
        src.consume(4_000, 0.0)
        assert src.available(0.0) == pytest.approx(6_000)

    def test_finished_after_delivery(self):
        src = FiniteSource(10_000)
        src.consume(10_000, 0.0)
        assert not src.finished
        src.on_delivered(10_000, 1.0)
        assert src.finished

    def test_loss_requires_retransmission(self):
        src = FiniteSource(10_000)
        src.consume(10_000, 0.0)
        src.on_lost(3_000, 0.5)
        assert src.available(0.5) == pytest.approx(3_000)
        src.on_delivered(7_000, 1.0)
        assert not src.finished
        src.consume(3_000, 1.1)
        src.on_delivered(3_000, 1.5)
        assert src.finished

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            FiniteSource(0)


class TestPaced:
    def test_accumulates_at_rate(self):
        src = PacedSource(rate=1e6)
        src.advance(0.0, 0.5)
        assert src.available(0.5) == pytest.approx(5e5)

    def test_consume(self):
        src = PacedSource(rate=1e6)
        src.advance(0.0, 1.0)
        src.consume(4e5, 1.0)
        assert src.available(1.0) == pytest.approx(6e5)


class TestPoisson:
    def test_long_run_rate(self):
        src = PoissonSource(rate=1e6, seed=3)
        total = 0.0
        dt = 0.01
        for i in range(2000):
            src.advance(i * dt, dt)
            got = src.available(i * dt)
            src.consume(got, i * dt)
            total += got
        mean_rate = total / (2000 * dt)
        assert mean_rate == pytest.approx(1e6, rel=0.1)

    def test_reproducible_with_seed(self):
        a = PoissonSource(rate=1e6, seed=5)
        b = PoissonSource(rate=1e6, seed=5)
        for i in range(100):
            a.advance(i * 0.01, 0.01)
            b.advance(i * 0.01, 0.01)
        assert a.available(1.0) == pytest.approx(b.available(1.0))

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            PoissonSource(rate=0)


class TestVideo:
    def test_4k_requests_segments(self):
        src = video_4k()
        src.advance(0.0, 0.01)
        assert src.available(0.01) > 0

    def test_segment_completion_fills_buffer(self):
        src = video_1080p()
        src.advance(0.0, 0.01)
        pending = src.available(0.01)
        src.consume(pending, 0.02)
        src.on_delivered(pending, 0.1)
        assert src.segments_downloaded == 1

    def test_1080p_segments_smaller_than_4k(self):
        hi, lo = video_4k(), video_1080p()
        hi.advance(0.0, 0.01)
        lo.advance(0.0, 0.01)
        assert hi.available(0.01) > lo.available(0.01)

    def test_buffer_cap_pauses_downloads(self):
        src = video_1080p()
        # Deliver many segments instantly; buffer should cap and the source
        # should stop requesting more until playback drains it.
        for i in range(30):
            src.advance(i * 0.01, 0.01)
            avail = src.available(i * 0.01)
            if avail:
                src.consume(avail, i * 0.01)
                src.on_delivered(avail, i * 0.01)
        assert src.available(0.5) == 0.0
