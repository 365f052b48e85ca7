"""Windowed counters and per-flow measurement (S, R, RTT, paired rates)."""

import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simulator.measurement import (
    _PRUNE_EVERY,
    FlowMeasurement,
    WindowedCounter,
)


class TestWindowedCounter:
    def test_sum_over_window(self):
        counter = WindowedCounter()
        for i in range(10):
            counter.add(i * 0.1, 100)
        # Samples strictly newer than 0.9 - 0.35 = 0.55: t = 0.6...0.9.
        assert counter.sum_over(0.9, window=0.35) == pytest.approx(400)

    def test_rate_over_window(self):
        counter = WindowedCounter()
        for i in range(10):
            counter.add(i * 0.1, 100)
        assert counter.rate_over(0.9, window=1.0) == pytest.approx(1000, rel=0.2)

    def test_ignores_nonpositive(self):
        counter = WindowedCounter()
        counter.add(0.0, 0)
        counter.add(0.0, -5)
        assert counter.total == 0.0

    def test_pruning_respects_horizon(self):
        counter = WindowedCounter(horizon=1.0)
        counter.add(0.0, 100)
        counter.add(5.0, 100)
        assert counter.sum_over(5.0, window=10.0) == pytest.approx(100)

    def test_zero_window_rate(self):
        counter = WindowedCounter()
        counter.add(0.0, 100)
        assert counter.rate_over(0.0, window=0.0) == 0.0


class TestFlowMeasurement:
    def test_rtt_tracking(self):
        m = FlowMeasurement()
        m.on_ack(1.0, 1500, rtt=0.08, queue_delay=0.03)
        m.on_ack(1.1, 1500, rtt=0.06, queue_delay=0.01)
        assert m.rtt == pytest.approx(0.06)
        assert m.min_rtt == pytest.approx(0.06)
        assert m.base_rtt() == pytest.approx(0.06)

    def test_send_and_delivery_rates(self):
        m = FlowMeasurement()
        for i in range(20):
            t = i * 0.01
            m.on_send(t, 1000)
            m.on_ack(t + 0.05, 1000, rtt=0.05, queue_delay=0.0)
        assert m.send_rate(0.2, window=0.1) == pytest.approx(1e5, rel=0.3)
        assert m.delivery_rate(0.25, window=0.1) == pytest.approx(1e5, rel=0.3)

    def test_loss_rate(self):
        m = FlowMeasurement()
        for i in range(10):
            m.on_send(i * 0.01, 1000)
        m.on_loss(0.1, 2000)
        assert m.loss_rate(0.1, window=0.2) == pytest.approx(0.2)

    def test_loss_rate_no_sends(self):
        assert FlowMeasurement().loss_rate(1.0) == 0.0

    def test_measurement_window_defaults(self):
        m = FlowMeasurement()
        assert m.measurement_window() == pytest.approx(0.05)
        m.on_ack(0.0, 1000, rtt=0.1, queue_delay=0.0)
        assert m.measurement_window() == pytest.approx(0.1)

    def test_base_rtt_without_samples(self):
        m = FlowMeasurement()
        assert m.base_rtt() > 0


class TestPairedRates:
    def test_equal_spacing_gives_equal_rates(self):
        m = FlowMeasurement()
        # Packets sent every 10 ms and acked exactly one RTT later: the send
        # and delivery rates over the same packets must agree.
        for i in range(30):
            send_t = i * 0.01
            m.on_send(send_t, 1500)
            m.on_ack(send_t + 0.05, 1500, rtt=0.05, queue_delay=0.0)
        m.rtt = 0.1  # the window is one RTT
        s, r = m.paired_rates(30 * 0.01 + 0.05)
        assert s == pytest.approx(r, rel=1e-6)
        assert s == pytest.approx(150_000, rel=0.1)

    def test_compression_raises_delivery_rate(self):
        m = FlowMeasurement()
        # Sent over 100 ms but all ACKs arrive within 10 ms: R >> S.
        for i in range(11):
            send_t = i * 0.01
            m.on_ack(1.0 + i * 0.001, 1500, rtt=1.0 + i * 0.001 - send_t,
                     queue_delay=0.0)
        m.rtt = 0.5  # the window is one RTT
        s, r = m.paired_rates(1.02)
        assert r > 5 * s

    def test_few_samples_fall_back(self):
        m = FlowMeasurement()
        m.on_send(0.0, 1500)
        m.on_ack(0.05, 1500, rtt=0.05, queue_delay=0.0)
        s, r = m.paired_rates(0.05)
        assert s >= 0 and r >= 0

    def test_max_delivery_rate_updates(self):
        m = FlowMeasurement()
        for i in range(30):
            send_t = i * 0.01
            m.on_send(send_t, 1500)
            m.on_ack(send_t + 0.05, 1500, rtt=0.05, queue_delay=0.0)
        m.rtt = 0.1
        m.paired_rates(0.35)
        assert m.max_delivery_rate > 0


class TestPickleStability:
    """Experiment payloads used to pickle whole flows, which pinned the
    measurement classes to their historical ``__dict__`` pickle layout.
    Payloads are plain data now (``tests/test_golden.py`` guards that), so
    what is left to hold is that the classes stay slotted."""

    def test_no_instance_dict(self):
        assert not hasattr(FlowMeasurement(), "__dict__")
        assert not hasattr(WindowedCounter(), "__dict__")


# ---------------------------------------------------------------------- #
# Differential tests: the column stores against a full scan
# ---------------------------------------------------------------------- #
class FullScanCounter:
    """Reference oracle: a deque of ``(time, bytes)`` tuples, pruned at
    every add and query, whose ``sum_over`` filters every retained sample."""

    def __init__(self, horizon=10.0):
        self.horizon = horizon
        self.samples = deque()
        self.total = 0.0

    def add(self, now, nbytes):
        if nbytes <= 0:
            return
        self.samples.append((now, nbytes))
        self.total += nbytes
        self._prune(now)

    def sum_over(self, now, window):
        self._prune(now)
        cutoff = now - window
        return sum(b for t, b in self.samples if t > cutoff)

    def rate_over(self, now, window):
        if window <= 0:
            return 0.0
        return self.sum_over(now, window) / window

    def _prune(self, now):
        cutoff = now - self.horizon
        while self.samples and self.samples[0][0] < cutoff:
            self.samples.popleft()


class FullScanMeasurement:
    """Reference oracle for :class:`FlowMeasurement`: three full-scan
    counters and a deque of ``(ack_time, sent_time, bytes)`` records,
    pruned at every ACK, that ``paired_rates`` filters in full."""

    def __init__(self, horizon=10.0):
        self.sent = FullScanCounter(horizon)
        self.delivered = FullScanCounter(horizon)
        self.lost = FullScanCounter(horizon)
        self.rtt = 0.0
        self.min_rtt = math.inf
        self.max_delivery_rate = 0.0
        self.acked = deque()

    def on_send(self, now, nbytes):
        self.sent.add(now, nbytes)

    def on_ack(self, now, nbytes, rtt, queue_delay):
        self.delivered.add(now, nbytes)
        self.rtt = rtt
        if rtt > 0 and rtt < self.min_rtt:
            self.min_rtt = rtt
        self.acked.append((now, now - rtt, nbytes))
        while self.acked and self.acked[0][0] < now - 2.0:
            self.acked.popleft()

    def on_loss(self, now, nbytes):
        self.lost.add(now, nbytes)

    def drop_windows(self):
        for counter in (self.sent, self.delivered, self.lost):
            counter.samples.clear()
        self.acked.clear()

    def measurement_window(self):
        if self.rtt > 0:
            return self.rtt
        if math.isfinite(self.min_rtt) and self.min_rtt > 0:
            return self.min_rtt
        return 0.05

    def send_rate(self, now, window=None):
        window = window if window is not None else self.measurement_window()
        return self.sent.rate_over(now, window)

    def delivery_rate(self, now, window=None):
        window = window if window is not None else self.measurement_window()
        rate = self.delivered.rate_over(now, window)
        if rate > self.max_delivery_rate:
            self.max_delivery_rate = rate
        return rate

    def loss_rate(self, now, window=None):
        window = window if window is not None else self.measurement_window()
        sent = self.sent.sum_over(now, window)
        if sent <= 0:
            return 0.0
        return min(1.0, self.lost.sum_over(now, window) / sent)

    def paired_rates(self, now):
        window = self.measurement_window()
        cutoff = now - window
        records = [rec for rec in self.acked if rec[0] > cutoff]
        if len(records) < 3:
            return self.send_rate(now, window), self.delivery_rate(now, window)
        total = sum(nbytes for _, _, nbytes in records)
        total_gap = total - records[0][2]
        ack_span = records[-1][0] - records[0][0]
        sent_span = records[-1][1] - records[0][1]
        if ack_span <= 0 or sent_span <= 0 or total_gap <= 0:
            return self.send_rate(now, window), self.delivery_rate(now, window)
        send_rate = total_gap / sent_span
        delivery_rate = total_gap / ack_span
        if delivery_rate > self.max_delivery_rate:
            self.max_delivery_rate = delivery_rate
        return send_rate, delivery_rate


def retained(store):
    """The samples a store holds, oldest first, as tuples: ``(time,
    bytes)`` for a counter, ``(ack_time, sent_time, bytes)`` for a flow's
    acked records; an oracle's deque as it is, a column store's columns
    from the head on."""
    if isinstance(store, FullScanCounter):
        return list(store.samples)
    if isinstance(store, FullScanMeasurement):
        return list(store.acked)
    if isinstance(store, WindowedCounter):
        head, columns = store._head, (store._times, store._bytes)
    else:
        head, columns = store._acked_head, (
            store._ack_times, store._sent_times, store._acked_bytes)
    return list(zip(*(column[head:] for column in columns)))


def assert_holds_what_oracle_holds(store, oracle, exact):
    """``store`` holds the oracle's samples; unless ``exact``, it may also
    hold fewer than ``_PRUNE_EVERY`` older ones that an append has not
    pruned yet (a query prunes them)."""
    mine, theirs = retained(store), retained(oracle)
    extra = len(mine) - len(theirs)
    assert 0 <= extra < (1 if exact else _PRUNE_EVERY)
    assert mine[extra:] == theirs


#: Quarter-second steps are exact in binary, so timestamps repeat (step 0)
#: and samples land exactly on ``now - window`` and ``now - horizon``; the
#: irregular steps and sizes make the order of the additions matter.
HORIZON = 2.0
steps = st.one_of(st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0]),
                  st.floats(min_value=0.0, max_value=1.5))
#: Queries may also lag or lead the newest sample.
offsets = st.sampled_from([-0.5, -0.25, 0.0, 0.0, 0.25, 1.0, HORIZON])
windows = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, HORIZON, HORIZON + 0.25, 1e9]),
    st.floats(min_value=0.0, max_value=2 * HORIZON))
#: 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1 and 1e16 absorbs a lone 1.0: sums
#: of these depend on the order they are added in.
sizes = st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0, 1500.0, 1e16]),
                  st.floats(min_value=0.1, max_value=1e7))
rtts = st.one_of(st.sampled_from([0.0, 0.25, 0.5]),
                 st.floats(min_value=0.001, max_value=1.0))

counter_ops = st.lists(st.one_of(
    st.tuples(st.just("add"), steps, sizes),
    st.tuples(st.just("sum_over"), offsets, windows)), max_size=80)


@given(ops=counter_ops)
def test_sum_over_equals_full_scan(ops):
    new, ref = WindowedCounter(HORIZON), FullScanCounter(HORIZON)
    clock = 0.0
    for op, step, value in ops:
        if op == "add":
            clock += step
            new.add(clock, value)
            ref.add(clock, value)
        else:
            assert new.sum_over(clock + step, value) == \
                ref.sum_over(clock + step, value)
        assert_holds_what_oracle_holds(new, ref, exact=op == "sum_over")
    assert new.total == ref.total


#: ACKs and ``paired_rates`` are drawn most often, so that windows holding
#: three or more records with a positive span (no fallback) are common.
acks = st.tuples(st.just("on_ack"), steps, sizes, rtts)
queries = st.tuples(
    st.sampled_from(["paired_rates"] * 4
                    + ["send_rate", "delivery_rate", "loss_rate"]),
    offsets, st.one_of(st.none(), windows))
measurement_ops = st.lists(st.one_of(
    acks, acks, acks, queries, queries,
    st.tuples(st.just("on_send"), steps, sizes),
    st.tuples(st.just("on_loss"), steps, sizes)), max_size=80)


@given(ops=measurement_ops)
def test_paired_rates_equal_full_scan(ops):
    new, ref = FlowMeasurement(HORIZON), FullScanMeasurement(HORIZON)
    clock = 0.0
    for op, step, *args in ops:
        if op.startswith("on_"):
            clock += step
            if op == "on_ack":
                args.append(0.0)  # queue delay: stored, never summed
            getattr(new, op)(clock, *args)
            getattr(ref, op)(clock, *args)
        elif op == "paired_rates":
            # Its window is one RTT: a drawn window becomes the RTT reading
            # (0 falls back to the minimum RTT).
            window, = args
            if window is not None:
                new.rtt = ref.rtt = window
            assert new.paired_rates(clock + step) == \
                ref.paired_rates(clock + step)
        else:
            assert getattr(new, op)(clock + step, *args) == \
                getattr(ref, op)(clock + step, *args)
        assert new.max_delivery_rate == ref.max_delivery_rate
    assert_holds_what_oracle_holds(new, ref, exact=False)
    for name in ("sent", "delivered", "lost"):
        assert_holds_what_oracle_holds(getattr(new, name), getattr(ref, name),
                                       exact=False)


class TestWindowEdges:
    """The cases the differential tests must not miss, spelled out."""

    def test_sample_exactly_on_the_cutoff_is_excluded(self):
        counter = WindowedCounter()
        for t in (1.0, 1.5, 1.5, 2.0):
            counter.add(t, 100)
        # now - window == 1.5 exactly: both duplicates fall outside.
        assert counter.sum_over(2.0, window=0.5) == 100
        assert counter.sum_over(2.0, window=0.75) == 300

    def test_window_longer_than_horizon_reads_what_is_retained(self):
        counter = WindowedCounter(horizon=1.0)
        for t in (0.5, 1.0, 2.0):
            counter.add(t, 100)
        # t == now - horizon is retained (pruning drops strictly older).
        assert counter.sum_over(2.0, window=5.0) == 200
        assert [t for t, _ in retained(counter)] == [1.0, 2.0]

    def test_a_lagging_query_reads_what_the_newest_sample_left(self):
        counter = WindowedCounter(horizon=1.0)
        counter.add(1.2, 100)
        counter.add(2.5, 50)
        # Adding at 2.5 prunes what is older than 1.5; a query at 2.0 that
        # reaches back past both horizons must not read 1.2 back.
        assert counter.sum_over(2.0, window=5.0) == 50
        assert retained(counter) == [(2.5, 50)]

    def test_query_older_than_newest_sample_still_counts_it(self):
        counter = WindowedCounter()
        counter.add(1.0, 100)
        counter.add(2.0, 50)
        assert counter.sum_over(1.5, window=1.0) == 150

    def test_summation_order_is_oldest_first(self):
        # 1e16 + 1 + 1 is 1e16 added oldest-first, 1e16 + 2 newest-first.
        counter = WindowedCounter()
        for t, b in ((1.0, 1e16), (2.0, 1.0), (3.0, 1.0)):
            counter.add(t, b)
        assert counter.sum_over(3.0, window=10.0) == sum([1e16, 1.0, 1.0])

    def test_paired_rates_fallbacks_match_windowed_rates(self):
        # The window is one RTT: 0.5 s.
        m = FlowMeasurement()
        m.on_send(0.9, 3000)
        m.on_ack(1.0, 1500, rtt=0.5, queue_delay=0.0)
        m.on_ack(1.0, 1500, rtt=0.5, queue_delay=0.0)
        # Two records: too few to span a gap.
        assert m.paired_rates(1.0) == (m.send_rate(1.0, 0.5),
                                       m.delivery_rate(1.0, 0.5))
        m.on_ack(1.0, 1500, rtt=0.5, queue_delay=0.0)
        # Three records with one ACK time: zero span.
        assert m.paired_rates(1.0) == (6000.0, 9000.0)
        assert m.max_delivery_rate == 9000.0

    def test_paired_rates_reads_only_the_window(self):
        m = FlowMeasurement()
        for i in range(8):
            m.on_ack(1.0 + 0.25 * i, 1000, rtt=0.75, queue_delay=0.0)
        # Records acked after 2.75 - 0.75 (one RTT) = 2.0: t = 2.25, 2.5,
        # 2.75.
        assert m.paired_rates(2.75) == (4000.0, 4000.0)
        assert m.max_delivery_rate == 4000.0


class TestBisectionAgainstFullScan:
    """The bisected suffix against the full-scan oracles above, at the
    cut points a bisection can get wrong."""

    def test_cutoff_on_duplicated_timestamps(self):
        new, ref = WindowedCounter(), FullScanCounter()
        stamps = (1.0, 1.5, 1.5, 1.5, 2.0, 2.0, 2.5, 2.5)
        for i, t in enumerate(stamps):
            new.add(t, 0.1 * (i + 1))
            ref.add(t, 0.1 * (i + 1))
        # Cutoffs on every run of duplicates, between them, and outside.
        for cutoff in (0.5, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0):
            assert new.sum_over(2.5, 2.5 - cutoff) == \
                ref.sum_over(2.5, 2.5 - cutoff)
        # Cutoff 1.5: the three samples stamped 1.5 are out, 2.0 onwards in.
        assert new.sum_over(2.5, 1.0) == sum(0.1 * (i + 1) for i in range(4, 8))

    def test_paired_rates_cutoff_on_duplicated_ack_times(self):
        new, ref = FlowMeasurement(), FullScanMeasurement()
        for i, t in enumerate((1.0, 1.25, 1.25, 1.5, 1.5, 1.5, 1.75, 2.0)):
            for m in (new, ref):
                m.on_ack(t, 1000.0 + i, rtt=0.1 * (i + 1), queue_delay=0.0)
        # The window is one RTT; an RTT of 0 falls back to the minimum.
        for window in (0.0, 0.25, 0.5, 0.625, 0.75, 1.0, 2.0):
            new.rtt = ref.rtt = window
            assert new.paired_rates(2.0) == ref.paired_rates(2.0)
            assert new.max_delivery_rate == ref.max_delivery_rate

    def test_dropped_windows_read_zero(self):
        new, ref = FlowMeasurement(), FullScanMeasurement()
        for i in range(10):
            for m in (new, ref):
                m.on_send(i * 0.1, 1500)
                m.on_ack(i * 0.1 + 0.05, 1500, rtt=0.05, queue_delay=0.0)
        new.drop_windows()
        ref.drop_windows()
        for window in (None, 0.0, 0.5, 100.0):
            for query in ("send_rate", "delivery_rate", "loss_rate"):
                assert getattr(new, query)(1.0, window) == \
                    getattr(ref, query)(1.0, window)
        for rtt in (0.0, 0.5, 100.0):
            new.rtt = ref.rtt = rtt
            assert new.paired_rates(1.0) == ref.paired_rates(1.0) == \
                (0.0, 0.0)
        assert new.sent.total == ref.sent.total == 15000

    def test_horizon_of_many_thousand_samples(self):
        new, ref = WindowedCounter(horizon=10.0), FullScanCounter(10.0)
        rng = np.random.default_rng(7)
        clock = 0.0
        for step, size in zip(rng.choice([0.0, 0.001, 0.0015], 7000),
                              rng.uniform(1.0, 1e7, 7000)):
            clock += float(step)
            new.add(clock, float(size))
            ref.add(clock, float(size))
        assert len(retained(new)) > 5000
        for window in (0.0, 1e-3, 0.05, 1.0, 5.0, 9.999, 10.0, 20.0):
            assert new.sum_over(clock, window) == ref.sum_over(clock, window)
        assert_holds_what_oracle_holds(new, ref, exact=True)

    def test_pruning_at_appends_holds_what_the_oracle_holds(self):
        # Thousands of appends, so appends prune and compact the columns
        # between queries; windows longer than both horizons read exactly
        # what pruning at every append keeps.
        new, ref = FlowMeasurement(horizon=1.0), FullScanMeasurement(1.0)
        clock = 0.0
        for i in range(6000):
            clock += (0.0, 0.001, 0.0035)[i % 3]
            for m in (new, ref):
                m.on_send(clock, 100.0 + i)
                m.on_ack(clock, 100.0 + i, rtt=0.01 + (i % 7) * 1e-3,
                         queue_delay=0.0)
            if i % 997 == 0:
                new.rtt = ref.rtt = 5.0
                assert new.paired_rates(clock) == ref.paired_rates(clock)
                assert_holds_what_oracle_holds(new, ref, exact=True)
                assert new.send_rate(clock, 5.0) == ref.send_rate(clock, 5.0)
                assert_holds_what_oracle_holds(new.sent, ref.sent,
                                               exact=True)
            assert_holds_what_oracle_holds(new, ref, exact=False)
            assert_holds_what_oracle_holds(new.delivered, ref.delivered,
                                           exact=False)
        # A column holds at most twice what it retains, plus what the
        # appends since the last prune added.
        assert len(new.sent._times) <= 2 * len(retained(ref.sent)) \
            + _PRUNE_EVERY


class TestBytesPerSample:
    def test_a_send_and_its_ack_keep_under_100_bytes(self):
        """20,000 ``on_send`` + ``on_ack`` pairs, all inside both horizons
        (10 s for the counters, 2 s for the acked records), are retained.
        Stored as deques of boxed tuples of boxed floats they kept 272-296
        bytes a pair; as flat float columns (two per counter, three for the
        acked records: 56 bytes of doubles) they keep about 59."""
        n = 20_000
        m = FlowMeasurement()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(n):
                t = i * 5e-5
                m.on_send(t, 1500.0)
                m.on_ack(t + 0.05, 1500.0, rtt=0.05, queue_delay=0.0)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept / n <= 100
        assert len(retained(m)) == len(retained(m.sent)) == n
