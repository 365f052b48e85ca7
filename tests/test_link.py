"""Bottleneck link: FIFO ordering, service rate, drops, and accounting."""

import random

import pytest

from repro.simulator.aqm import DropTail
from repro.simulator.link import BottleneckLink
from repro.simulator.packet import Chunk


def chunk(flow_id=0, size=1000.0, seq=0.0, sent=0.0):
    return Chunk(flow_id=flow_id, size=size, seq=seq, sent_time=sent)


def make_link(capacity=1e6, buffer_bytes=10e3):
    return BottleneckLink(capacity=capacity, policy=DropTail(buffer_bytes))


class TestEnqueue:
    def test_admits_within_buffer(self):
        link = make_link()
        drops = link.enqueue(chunk(size=5000), now=0.0)
        assert drops == []
        assert link.queue_bytes == pytest.approx(5000)

    def test_drop_tail_overflow(self):
        link = make_link(buffer_bytes=6000)
        link.enqueue(chunk(size=5000), now=0.0)
        drops = link.enqueue(chunk(size=5000, flow_id=1), now=0.0)
        assert len(drops) == 1
        assert drops[0].flow_id == 1
        assert drops[0].lost_bytes == pytest.approx(4000)
        assert link.queue_bytes == pytest.approx(6000)

    def test_full_buffer_drops_everything(self):
        link = make_link(buffer_bytes=1000)
        link.enqueue(chunk(size=1000), now=0.0)
        drops = link.enqueue(chunk(size=500), now=0.0)
        assert drops[0].lost_bytes == pytest.approx(500)

    def test_total_drops_accumulate(self):
        link = make_link(buffer_bytes=1000)
        link.enqueue(chunk(size=900), now=0.0)
        link.enqueue(chunk(size=900), now=0.0)
        assert link.total_drops == pytest.approx(800)


class TestService:
    def test_serves_at_capacity(self):
        link = make_link(capacity=1e6)
        link.enqueue(chunk(size=5000), now=0.0)
        served = link.service(now=0.001, dt=0.001)
        assert sum(c.size for c in served) == pytest.approx(1000)
        assert link.queue_bytes == pytest.approx(4000)

    def test_fifo_order(self):
        link = make_link(capacity=1e6, buffer_bytes=1e6)
        link.enqueue(chunk(flow_id=0, size=600), now=0.0)
        link.enqueue(chunk(flow_id=1, size=600), now=0.0)
        served = link.service(now=0.001, dt=0.001)
        assert [c.flow_id for c in served] == [0, 1]

    def test_partial_service_splits_head(self):
        link = make_link(capacity=1e6)
        link.enqueue(chunk(size=1500), now=0.0)
        served = link.service(now=0.001, dt=0.001)
        assert sum(c.size for c in served) == pytest.approx(1000)
        served2 = link.service(now=0.002, dt=0.001)
        assert sum(c.size for c in served2) == pytest.approx(500)

    def test_queue_delay_recorded(self):
        link = make_link(capacity=1e6)
        link.enqueue(chunk(size=500), now=0.0)
        served = link.service(now=0.05, dt=0.001)
        assert served[0].queue_delay == pytest.approx(0.05, abs=1e-6)

    def test_idle_link_has_no_credit_banking(self):
        link = make_link(capacity=1e6)
        # Idle for a long time: no stored-up service credit.
        link.service(now=1.0, dt=1.0)
        link.enqueue(chunk(size=100000), now=1.0)
        served = link.service(now=1.001, dt=0.001)
        assert sum(c.size for c in served) <= 1000 + 1e-6

    def test_conservation(self):
        link = make_link(capacity=1e6, buffer_bytes=5000)
        total_in = 0.0
        total_dropped = 0.0
        for i in range(20):
            c = chunk(size=800, seq=i * 800)
            total_in += c.size
            for d in link.enqueue(c, now=i * 0.001):
                total_dropped += d.lost_bytes
            link.service(now=(i + 1) * 0.001, dt=0.001)
        assert total_in == pytest.approx(
            link.total_served + link.queue_bytes + total_dropped)


class RecordingDropTail(DropTail):
    """Drop-tail that overrides the dequeue hook to record its calls."""

    def __init__(self, buffer_bytes):
        super().__init__(buffer_bytes)
        self.dequeues = []

    def on_dequeue(self, chunk_bytes, queue_delay, now):
        self.dequeues.append((chunk_bytes, queue_delay, now))


class TestDequeueHook:
    def test_an_overriding_policy_hears_every_served_chunk(self):
        policy = RecordingDropTail(1e6)
        link = BottleneckLink(capacity=1e6, policy=policy)
        for flow_id, size in ((0, 600.0), (1, 300.0), (0, 700.0)):
            link.enqueue(chunk(flow_id=flow_id, size=size), now=0.0)
        # A 1000-byte budget: two whole chunks, then 100 bytes split off
        # the third; each call sees the queue delay after its removal.
        served = link.service(now=0.001, dt=0.001)
        assert [c.size for c in served] == [600.0, 300.0, 100.0]
        assert policy.dequeues == [(600.0, 1000.0 / 1e6, 0.001),
                                   (300.0, 700.0 / 1e6, 0.001),
                                   (100.0, 600.0 / 1e6, 0.001)]
        served += link.service(now=0.002, dt=0.001)
        assert len(policy.dequeues) == len(served) == 4
        assert policy.dequeues[-1] == (600.0, 0.0, 0.002)

    def test_drop_tail_drains_as_an_overriding_policy_does(self):
        """The base no-op is skipped, and nothing else changes."""
        rng = random.Random(7)
        plain = BottleneckLink(capacity=1e6, policy=DropTail(8000))
        hooked = BottleneckLink(capacity=1e6, policy=RecordingDropTail(8000))
        drained = {id(plain): [], id(hooked): []}
        for tick in range(1, 400):
            now = tick * 0.001
            arrivals = [(rng.randrange(3), rng.uniform(1.0, 2500.0))
                        for _ in range(rng.randrange(3))]
            for link in (plain, hooked):
                for flow_id, size in arrivals:
                    link.enqueue(chunk(flow_id=flow_id, size=size), now)
                drained[id(link)] += [
                    (c.flow_id, c.size, c.seq, c.queue_delay)
                    for c in link.service(now, 0.001)]
        assert drained[id(plain)] == drained[id(hooked)]
        assert len(hooked.policy.dequeues) == len(drained[id(hooked)]) > 0
        for name in ("queue_bytes", "total_served", "total_drops",
                     "total_offered", "_service_credit", "_flow_bytes",
                     "_flow_chunks"):
            assert getattr(plain, name) == getattr(hooked, name), name


def occupancy_invariants(link):
    """The per-flow counters must agree with the queue they summarise."""
    scanned = {}
    for c in link._queue:
        scanned[c.flow_id] = scanned.get(c.flow_id, 0.0) + c.size
    for flow_id, nbytes in scanned.items():
        assert link.occupancy_of(flow_id) == pytest.approx(nbytes, abs=1e-6)
    assert sum(link._flow_bytes.values()) == pytest.approx(
        link.queue_bytes, abs=1e-6)
    assert set(link._flow_bytes) == set(scanned)


class TestOccupancyAccounting:
    def test_counter_tracks_enqueue_partial_drop_split_dequeue(self):
        link = make_link(capacity=1e6, buffer_bytes=8000)
        # Plain enqueues for two flows.
        link.enqueue(chunk(flow_id=0, size=3000), now=0.0)
        link.enqueue(chunk(flow_id=1, size=2500), now=0.0)
        occupancy_invariants(link)
        # Partial drop: only the admitted remainder may be counted.
        drops = link.enqueue(chunk(flow_id=0, size=4000), now=0.001)
        assert drops and drops[0].lost_bytes == pytest.approx(1500)
        assert link.occupancy_of(0) == pytest.approx(3000 + 2500)
        occupancy_invariants(link)
        # Partial service splits the head chunk of flow 0.
        link.service(now=0.002, dt=0.001)
        occupancy_invariants(link)
        # Drain everything; counters must disappear with their chunks.
        link.service(now=1.0, dt=1.0)
        occupancy_invariants(link)
        assert link.occupancy_of(0) == 0.0
        assert link.occupancy_of(1) == 0.0
        assert link._flow_bytes == {} and link._flow_chunks == {}

    def test_counter_exact_zero_after_flow_leaves(self):
        # Sizes chosen so incremental add/subtract would leave a float
        # residue; removing the last chunk must reset the flow exactly.
        link = make_link(capacity=1e6, buffer_bytes=1e9)
        for i in range(50):
            link.enqueue(chunk(flow_id=0, size=0.1 + i * 1e-3), now=0.0)
        while link.occupancy_of(0) > 0.0:
            link.service(now=1.0, dt=1.0)
        assert link.occupancy_of(0) == 0.0
        assert 0 not in link._flow_bytes

    def test_invariant_through_randomised_traffic(self):
        import random

        rng = random.Random(7)
        link = make_link(capacity=1e6, buffer_bytes=5000)
        now = 0.0
        for step in range(300):
            now += 0.001
            for flow_id in range(4):
                if rng.random() < 0.7:
                    link.enqueue(chunk(flow_id=flow_id,
                                       size=rng.uniform(10, 2000),
                                       seq=step), now=now)
            link.service(now=now, dt=0.001)
            occupancy_invariants(link)


class TestServiceCreditEdges:
    def test_head_within_tolerance_of_budget_fully_served(self):
        # The head is 1e-10 bytes larger than the budget: within the 1e-9
        # slack, so it must be dequeued whole instead of split.
        link = make_link(capacity=1e6)
        link.enqueue(chunk(size=1000 + 1e-10), now=0.0)
        served = link.service(now=0.001, dt=0.001)
        assert len(served) == 1
        assert served[0].size == pytest.approx(1000, abs=1e-6)
        assert not link._queue

    def test_credit_resets_when_queue_idles(self):
        link = make_link(capacity=1e6)
        link.enqueue(chunk(size=300), now=0.0)
        link.service(now=0.001, dt=0.001)  # 700 bytes of budget unused
        assert link._service_credit == 0.0  # queue idle: nothing banked
        # A busy queue does bank the unserved remainder of the budget.
        link.enqueue(chunk(size=1500), now=0.001)
        link.service(now=0.002, dt=0.001)
        assert link._service_credit == 0.0  # split consumed the full budget
        link.service(now=0.003, dt=0.001)
        assert link._service_credit == 0.0
        assert link.queue_bytes == pytest.approx(0.0, abs=1e-6)

    def test_partial_admission_cuts_drop_before_mutating_chunk(self):
        link = make_link(buffer_bytes=4000)
        c = chunk(flow_id=2, size=5000)
        drops = link.enqueue(c, now=0.0)
        # The drop record reflects the original size; the chunk was then
        # shrunk in place to the admitted bytes.
        assert drops[0].lost_bytes == pytest.approx(1000)
        assert c.size == pytest.approx(4000)
        assert c.enqueue_time == 0.0
        assert link.occupancy_of(2) == pytest.approx(4000)
        occupancy_invariants(link)


class TestQueries:
    def test_queue_delay_property(self):
        link = make_link(capacity=1e6)
        link.enqueue(chunk(size=2000), now=0.0)
        assert link.queue_delay == pytest.approx(0.002)

    def test_occupancy_of(self):
        link = make_link(buffer_bytes=1e6)
        link.enqueue(chunk(flow_id=0, size=1000), now=0.0)
        link.enqueue(chunk(flow_id=1, size=2000), now=0.0)
        assert link.occupancy_of(0) == pytest.approx(1000)
        assert link.occupancy_of(1) == pytest.approx(2000)
        assert link.occupancy_of(7) == 0.0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            BottleneckLink(capacity=0)
