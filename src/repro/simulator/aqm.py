"""Queue management policies for the bottleneck link.

The paper evaluates Nimbus against both drop-tail buffers of various depths
and the PIE active queue management scheme (Appendix E.2).  Both are
implemented here behind a small common interface so the link does not need
to know which policy is in use.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod


class QueuePolicy(ABC):
    """Decides whether an arriving chunk (or part of it) is dropped."""

    @abstractmethod
    def admit(self, chunk_bytes: float, queue_bytes: float,
              queue_delay: float, now: float) -> float:
        """Return how many of ``chunk_bytes`` are admitted to the queue.

        Args:
            chunk_bytes: Size of the arriving chunk in bytes.
            queue_bytes: Current queue occupancy in bytes.
            queue_delay: Current estimated queueing delay in seconds.
            now: Current simulation time.

        Returns:
            Number of bytes admitted; the remainder is dropped.
        """

    def on_dequeue(self, chunk_bytes: float, queue_delay: float,
                   now: float) -> None:
        """Hook invoked when bytes leave the queue (used by PIE)."""


class DropTail(QueuePolicy):
    """Classic finite FIFO buffer: admit until the buffer is full."""

    def __init__(self, buffer_bytes: float) -> None:
        if buffer_bytes <= 0:
            raise ValueError("buffer_bytes must be positive")
        self.buffer_bytes = buffer_bytes

    def admit(self, chunk_bytes: float, queue_bytes: float,
              queue_delay: float, now: float) -> float:
        space = self.buffer_bytes - queue_bytes
        if space <= 0:
            return 0.0
        # ``min(chunk_bytes, space)``, without the builtin's call overhead.
        return space if space < chunk_bytes else chunk_bytes

    def __repr__(self) -> str:
        return f"DropTail(buffer_bytes={self.buffer_bytes:.0f})"


class Pie(QueuePolicy):
    """Proportional Integral controller Enhanced (PIE) AQM.

    A lightweight rendition of RFC 8033: the drop probability is updated
    periodically from the deviation of the estimated queueing delay from a
    target and from its rate of change.  Arriving bytes are dropped randomly
    with the current probability; a hard cap mirrors the physical buffer.
    """

    #: Seconds between drop-probability updates, and the gains on the
    #: delay's deviation from the target and on its change (RFC 8033).
    UPDATE_INTERVAL = 0.015
    ALPHA = 0.125
    BETA = 1.25

    def __init__(self, target_delay: float, buffer_bytes: float,
                 seed: int | None = 0) -> None:
        if target_delay <= 0:
            raise ValueError("target_delay must be positive")
        if buffer_bytes <= 0:
            raise ValueError("buffer_bytes must be positive")
        self.target_delay = target_delay
        self.buffer_bytes = buffer_bytes
        self.drop_prob = 0.0
        self._last_update = 0.0
        self._last_delay = 0.0
        self._current_delay = 0.0
        self._rng = random.Random(seed)

    def admit(self, chunk_bytes: float, queue_bytes: float,
              queue_delay: float, now: float) -> float:
        self._current_delay = queue_delay
        self._maybe_update(now)
        space = self.buffer_bytes - queue_bytes
        if space <= 0:
            return 0.0
        admitted = min(chunk_bytes, space)
        # Random early drop proportional to the current drop probability.
        # With fluid chunks we drop a fraction of the chunk in expectation,
        # randomising around it so bursts see occasional full admits.
        if self.drop_prob > 0 and self._rng.random() < self.drop_prob:
            admitted *= max(0.0, 1.0 - self.drop_prob)
        return admitted

    def on_dequeue(self, chunk_bytes: float, queue_delay: float,
                   now: float) -> None:
        self._current_delay = queue_delay
        self._maybe_update(now)

    def _maybe_update(self, now: float) -> None:
        if now - self._last_update < self.UPDATE_INTERVAL:
            return
        delay = self._current_delay
        delta = (self.ALPHA * (delay - self.target_delay)
                 + self.BETA * (delay - self._last_delay))
        # Scale the adjustment down when the drop probability is small, as
        # RFC 8033 recommends, so the controller does not oscillate.
        if self.drop_prob < 0.01:
            delta *= 1 / 8
        elif self.drop_prob < 0.1:
            delta *= 1 / 2
        self.drop_prob = min(1.0, max(0.0, self.drop_prob + delta))
        self._last_delay = delay
        self._last_update = now

    def __repr__(self) -> str:
        return (f"Pie(target_delay={self.target_delay}, "
                f"buffer_bytes={self.buffer_bytes:.0f})")
