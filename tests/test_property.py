"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import cdf, jain_fairness
from repro.core.elasticity import elasticity_metric
from repro.core.estimator import estimate_cross_traffic
from repro.core.multiflow import WatcherRateFilter
from repro.core.pulses import AsymmetricSinusoidPulse
from repro.simulator.aqm import DropTail
from repro.simulator.link import BottleneckLink
from repro.simulator.measurement import WindowedCounter
from repro.simulator.packet import Chunk

positive_rate = st.floats(min_value=1e3, max_value=1e9, allow_nan=False)


@given(size=st.floats(min_value=2.0, max_value=1e7),
       fraction=st.floats(min_value=0.01, max_value=0.99))
def test_chunk_split_conserves_bytes_and_order(size, fraction):
    chunk = Chunk(flow_id=0, size=size, seq=1000.0, sent_time=0.0)
    head_bytes = size * fraction
    assume(0 < head_bytes < size)
    head = chunk.split(head_bytes)
    assert math.isclose(head.size + chunk.size, size, rel_tol=1e-12)
    assert head.seq <= chunk.seq
    assert math.isclose(head.seq + head.size, chunk.seq, rel_tol=1e-12)


@given(mu=positive_rate, s=positive_rate, r=positive_rate)
def test_cross_traffic_estimate_in_physical_range(mu, s, r):
    z = estimate_cross_traffic(mu, s, r)
    assert 0.0 <= z <= mu


@given(mu=positive_rate, s=positive_rate,
       z_true=st.floats(min_value=0.0, max_value=1e9))
def test_cross_traffic_estimate_inverts_fifo_share(mu, s, z_true):
    assume(z_true <= mu * 0.99)
    # Construct R from the FIFO-sharing relation the estimator assumes.
    r = mu * s / (s + z_true)
    z = estimate_cross_traffic(mu, s, r)
    assert math.isclose(z, min(z_true, mu), rel_tol=1e-6, abs_tol=1e-3)


@given(frequency=st.floats(min_value=0.5, max_value=20.0),
       fraction=st.floats(min_value=0.01, max_value=1.0))
@settings(max_examples=30, deadline=None)
def test_pulse_zero_mean_any_parameters(frequency, fraction):
    pulse = AsymmetricSinusoidPulse(frequency=frequency,
                                    pulse_fraction=fraction)
    ts = np.linspace(0, pulse.period, 4000, endpoint=False)
    mean = np.mean([pulse.offset_fraction(t) for t in ts])
    assert abs(mean) < 1e-3 * fraction + 1e-9


@given(rates=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                      max_size=20))
def test_jain_fairness_bounds(rates):
    fairness = jain_fairness(rates)
    if all(r == 0 for r in rates):
        assert fairness == 0.0
    else:
        assert 1.0 / len(rates) - 1e-9 <= fairness <= 1.0 + 1e-9


@given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                 allow_nan=False), min_size=1, max_size=200))
def test_cdf_properties(values):
    xs, ps = cdf(values)
    assert xs.size == len(values)
    assert np.all(np.diff(xs) >= 0)
    assert np.all(np.diff(ps) >= -1e-12)
    assert ps[-1] == 1.0


@given(scale=st.floats(min_value=1e-3, max_value=1e6),
       offset=st.floats(min_value=-1e3, max_value=1e3))
@settings(max_examples=30, deadline=None)
def test_elasticity_metric_affine_invariant(scale, offset):
    t = np.arange(0, 5, 0.01)
    rng = np.random.default_rng(7)
    signal = np.sin(2 * np.pi * 5.0 * t) + 0.3 * rng.normal(size=t.size)
    base = elasticity_metric(signal, 0.01, 5.0)
    transformed = elasticity_metric(signal * scale + offset, 0.01, 5.0)
    assert math.isclose(base, transformed, rel_tol=1e-6)


@given(adds=st.lists(st.tuples(st.floats(min_value=0, max_value=100),
                               st.floats(min_value=1, max_value=1e6)),
                     min_size=1, max_size=100))
def test_windowed_counter_total_matches_sum(adds):
    counter = WindowedCounter(horizon=1e9)
    adds = sorted(adds)
    for t, b in adds:
        counter.add(t, b)
    expected = sum(b for _, b in adds)
    last_t = adds[-1][0]
    assert math.isclose(counter.sum_over(last_t, window=1e9), expected,
                        rel_tol=1e-9)


@given(chunks=st.lists(st.floats(min_value=10, max_value=5000), min_size=1,
                       max_size=60),
       buffer_bytes=st.floats(min_value=1000, max_value=20000),
       capacity=st.floats(min_value=1e4, max_value=1e7))
@settings(max_examples=50, deadline=None)
def test_link_conservation_property(chunks, buffer_bytes, capacity):
    """Bytes in == bytes served + bytes queued + bytes dropped, always."""
    link = BottleneckLink(capacity=capacity, policy=DropTail(buffer_bytes))
    dropped = 0.0
    total_in = 0.0
    now = 0.0
    for i, size in enumerate(chunks):
        now = i * 0.001
        chunk = Chunk(flow_id=0, size=size, seq=total_in, sent_time=now)
        total_in += size
        for record in link.enqueue(chunk, now):
            dropped += record.lost_bytes
        link.service(now + 0.0005, dt=0.001)
    assert math.isclose(total_in,
                        link.total_served + link.queue_bytes + dropped,
                        rel_tol=1e-9, abs_tol=1e-6)
    assert link.queue_bytes <= buffer_bytes + 1e-6


@given(cutoff=st.floats(min_value=0.5, max_value=20.0),
       rates=st.lists(st.floats(min_value=0, max_value=1e8), min_size=1,
                      max_size=100))
def test_watcher_filter_output_within_input_range(cutoff, rates):
    filt = WatcherRateFilter(cutoff_frequency=cutoff, update_interval=0.01)
    outputs = [filt.filter(r) for r in rates]
    assert min(outputs) >= min(rates) - 1e-6
    assert max(outputs) <= max(rates) + 1e-6
