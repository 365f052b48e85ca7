"""Chunk, Ack, and FlowStats behaviour."""

import pytest

from repro.simulator.packet import Ack, Chunk, FlowStats


def make_chunk(size=3000.0, seq=100.0):
    return Chunk(flow_id=1, size=size, seq=seq, sent_time=2.0)


class TestChunkSplit:
    def test_split_sizes(self):
        chunk = make_chunk(size=3000, seq=100)
        head = chunk.split(1000)
        assert head.size == pytest.approx(1000)
        assert chunk.size == pytest.approx(2000)

    def test_split_sequence_numbers(self):
        chunk = make_chunk(size=3000, seq=100)
        head = chunk.split(1000)
        assert head.seq == pytest.approx(100)
        assert chunk.seq == pytest.approx(1100)

    def test_split_preserves_metadata(self):
        chunk = make_chunk()
        chunk.enqueue_time = 5.0
        chunk.queue_delay = 0.01
        head = chunk.split(500)
        assert head.flow_id == chunk.flow_id
        assert head.sent_time == chunk.sent_time
        assert head.enqueue_time == chunk.enqueue_time
        assert head.queue_delay == chunk.queue_delay

    def test_split_whole_chunk_rejected(self):
        chunk = make_chunk(size=3000)
        with pytest.raises(ValueError):
            chunk.split(3000)

    def test_split_zero_rejected(self):
        with pytest.raises(ValueError):
            make_chunk().split(0)

    def test_split_conserves_bytes(self):
        chunk = make_chunk(size=4321)
        head = chunk.split(1234)
        assert head.size + chunk.size == pytest.approx(4321)

    def test_split_negative_rejected(self):
        with pytest.raises(ValueError):
            make_chunk().split(-1.0)

    def test_split_oversize_rejected(self):
        with pytest.raises(ValueError):
            make_chunk(size=3000).split(3000.0001)

    def test_split_tiny_head(self):
        chunk = make_chunk(size=1000, seq=0)
        head = chunk.split(1e-6)
        assert head.size == pytest.approx(1e-6)
        assert chunk.seq == pytest.approx(1e-6)
        assert chunk.size + head.size == pytest.approx(1000)

    def test_repeated_splits_preserve_coverage(self):
        chunk = make_chunk(size=1000, seq=0)
        pieces = [chunk.split(100) for _ in range(9)] + [chunk]
        assert [p.seq for p in pieces] == pytest.approx(
            [100.0 * i for i in range(10)])
        assert sum(p.size for p in pieces) == pytest.approx(1000)


class TestSlotted:
    """The hot-path data units must stay dict-free (allocation-lean)."""

    def test_no_instance_dict(self):
        assert not hasattr(make_chunk(), "__dict__")
        ack = Ack(flow_id=0, acked_bytes=1.0, sent_time=0.0,
                  queue_delay=0.0, delivered_time=0.0)
        assert not hasattr(ack, "__dict__")

    def test_unknown_attribute_rejected(self):
        with pytest.raises(AttributeError):
            make_chunk().colour = "red"


class TestFlowStats:
    def test_defaults(self):
        stats = FlowStats()
        assert stats.bytes_sent == 0.0
        assert stats.bytes_delivered == 0.0
        assert stats.bytes_lost == 0.0
        assert stats.end_time is None


def test_ack_fields():
    ack = Ack(flow_id=3, acked_bytes=1500, sent_time=1.0, queue_delay=0.02,
              delivered_time=1.07)
    assert ack.flow_id == 3
    assert ack.delivered_time - ack.sent_time == pytest.approx(0.07)
