"""Inelastic traffic source: Poisson packet arrivals.

The paper's inelastic cross traffic is either a constant-bit-rate stream
(:class:`~repro.simulator.source.PacedSource`) or "Poisson packet arrivals
at the specified mean rate" (§5).  Both are application-limited: the
transport sends whatever the application produces, so the sending rate
never reacts to the network.
"""

from __future__ import annotations

import random

from ..simulator.source import Source
from ..simulator.units import MSS_BYTES


class PoissonSource(Source):
    """Packets arrive from the application as a Poisson process.

    Each arrival contributes one MSS-sized packet; the arrival rate is
    ``rate / MSS_BYTES`` per second so the long-run offered load is exactly
    ``rate`` bytes per second, but with the short-term variance of a
    Poisson process — the variance that produces the "false peaks" in the
    FFT the paper discusses (§3.4, §8.2).  The backlog is unbounded.
    """

    def __init__(self, rate: float, seed: int = 0) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self._rng = random.Random(seed)
        self._backlog = 0.0
        self._next_arrival = 0.0
        self._initialised = False

    def advance(self, now: float, dt: float) -> None:
        if not self._initialised:
            self._next_arrival = now + self._sample_gap()
            self._initialised = True
        while self._next_arrival <= now:
            self._backlog += MSS_BYTES
            self._next_arrival += self._sample_gap()

    def available(self, now: float) -> float:
        return self._backlog

    def consume(self, nbytes: float, now: float) -> None:
        self._backlog = max(0.0, self._backlog - nbytes)

    def _sample_gap(self) -> float:
        mean_gap = MSS_BYTES / self.rate
        return self._rng.expovariate(1.0 / mean_gap)

    def __repr__(self) -> str:
        return f"PoissonSource(rate={self.rate:.0f} B/s)"
