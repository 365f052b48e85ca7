"""Application-layer sources that feed bytes to a transport flow.

A source decides how many bytes the application has made available for
transmission at any point in time.  A *backlogged* source always has data
(the "bulk transfer" of the paper's experiments); a *finite* source models a
single flow of a given size whose completion time can be measured; richer
sources (Poisson/CBR streams, DASH video) live in :mod:`repro.traffic` and
implement the same interface.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod


class Source(ABC):
    """Interface between the application model and a transport flow."""

    @abstractmethod
    def available(self, now: float) -> float:
        """Bytes the application is ready to hand to the transport at ``now``."""

    def consume(self, nbytes: float, now: float) -> None:
        """Called when the transport sends ``nbytes`` of application data."""

    def on_delivered(self, nbytes: float, now: float) -> None:
        """Called when ``nbytes`` are acknowledged end to end."""

    def on_lost(self, nbytes: float, now: float) -> None:
        """Called when ``nbytes`` are reported lost (they must be resent)."""

    @property
    def finished(self) -> bool:
        """True when the source has no more data to send, ever."""
        return False

    def advance(self, now: float, dt: float) -> None:
        """Per-tick hook for sources that generate data over time."""


class BackloggedSource(Source):
    """An always-full sending buffer: the flow is never application-limited."""

    def available(self, now: float) -> float:
        return math.inf

    def __repr__(self) -> str:
        return "BackloggedSource()"


class FiniteSource(Source):
    """A flow that transfers exactly ``size_bytes`` and then completes.

    Lost bytes are added back to the outstanding amount, mimicking
    retransmission, so the delivered total always reaches ``size_bytes``
    before the flow is considered done.
    """

    def __init__(self, size_bytes: float) -> None:
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        self.size_bytes = size_bytes
        self._unsent = float(size_bytes)
        self._delivered = 0.0

    def available(self, now: float) -> float:
        return self._unsent

    def consume(self, nbytes: float, now: float) -> None:
        self._unsent = max(0.0, self._unsent - nbytes)

    def on_delivered(self, nbytes: float, now: float) -> None:
        self._delivered += nbytes

    def on_lost(self, nbytes: float, now: float) -> None:
        # Lost bytes must be retransmitted before the transfer is complete.
        self._unsent += nbytes

    @property
    def finished(self) -> bool:
        # Under one byte the sender cannot emit (``Flow.emit``'s floor).
        return self._unsent < 1.0 and self._delivered >= self.size_bytes - 1.0

    def __repr__(self) -> str:
        return f"FiniteSource(size_bytes={self.size_bytes:.0f})"


class PacedSource(Source):
    """Application writes data into the socket buffer at a constant rate.

    This models inelastic, application-limited traffic such as a constant
    bit-rate stream: regardless of what the transport or the network do, the
    application only produces ``rate`` bytes per second.
    """

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self._backlog = 0.0

    def advance(self, now: float, dt: float) -> None:
        self._backlog += self.rate * dt

    def available(self, now: float) -> float:
        return self._backlog

    def consume(self, nbytes: float, now: float) -> None:
        self._backlog = max(0.0, self._backlog - nbytes)

    def __repr__(self) -> str:
        return f"PacedSource(rate={self.rate:.0f} B/s)"
