"""Data units exchanged inside the simulator.

The simulator is a *fluid-chunk* model: instead of individual 1500-byte
packets, each sender emits one "chunk" of bytes per simulation tick.  A chunk
carries enough metadata (send time, sequence range, accumulated queueing
delay) for the receiving endpoint to produce the acknowledgement stream that
congestion-control algorithms consume.  This keeps event counts proportional
to ``flows x ticks`` rather than ``flows x packets`` while preserving the
dynamics the paper's elasticity detector depends on: ACK clocking, queue
build-up and drain, and drop feedback after roughly one round-trip time.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class Chunk:
    """A contiguous run of bytes in flight from a sender.

    Slotted: the engine creates one chunk per flow per tick, so the
    per-instance ``__dict__`` was pure overhead on the hot path.

    Attributes:
        flow_id: Identifier of the flow that emitted the chunk.
        size: Number of bytes in the chunk (may shrink if partially dropped).
        seq: Byte offset of the first byte of the chunk within the flow.
        sent_time: Simulation time at which the sender emitted the chunk.
        enqueue_time: Time the chunk entered its current queue (set by the
            link on every enqueue), used to compute its queueing delay.
        queue_delay: Total queueing delay experienced so far, in seconds —
            accumulated across every hop of a multi-link path.
        hop: Index of the topology node the chunk was last forwarded to
            (set by the engine on every hop; the next link is that node's
            table entry for the flow's destination).
    """

    flow_id: int
    size: float
    seq: float
    sent_time: float
    enqueue_time: float = 0.0
    queue_delay: float = 0.0
    hop: int = 0

    def split(self, first_bytes: float) -> "Chunk":
        """Split off the first ``first_bytes`` bytes into a new chunk.

        The remaining bytes stay in ``self``.  Used when the bottleneck link
        can only serve part of a chunk within one service opportunity.
        """
        if first_bytes <= 0 or first_bytes >= self.size:
            raise ValueError(
                f"split size {first_bytes} must be in (0, {self.size})"
            )
        # Positional: keywords double the cost of a per-chunk construction.
        head = Chunk(self.flow_id, first_bytes, self.seq, self.sent_time,
                     self.enqueue_time, self.queue_delay, self.hop)
        self.seq += first_bytes
        self.size -= first_bytes
        return head


@dataclass(slots=True)
class Ack:
    """Acknowledgement returned from a receiver to a sender.

    Slotted for the same reason as :class:`Chunk`: one is allocated per
    delivery, which makes it the second-hottest allocation in the engine.

    Attributes:
        flow_id: Flow being acknowledged.
        acked_bytes: Number of newly delivered bytes covered by this ACK.
        sent_time: Send timestamp echoed from the acknowledged chunk,
            allowing the sender to measure the round-trip time.
        queue_delay: Queueing delay experienced by the acknowledged chunk.
        delivered_time: Time the chunk reached the receiver.
    """

    flow_id: int
    acked_bytes: float
    sent_time: float
    queue_delay: float
    delivered_time: float


@dataclass(slots=True)
class FlowStats:
    """Aggregate per-flow accounting maintained by the engine.

    Slotted: a run keeps one per flow it ever created, and these totals
    are what a finished flow is still read for.
    """

    bytes_sent: float = 0.0
    bytes_delivered: float = 0.0
    bytes_lost: float = 0.0
    start_time: float = 0.0
    end_time: float | None = None
