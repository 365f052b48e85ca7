"""Rate-modulation pulses (§3.4, Fig. 7 of the paper).

The sender perturbs its transmission rate with a pulse train at a known
frequency ``fp``.  The paper's pulse is an *asymmetric sinusoid*: during the
first quarter of each period the sender adds a half-sine of amplitude
``A = pulse_fraction * mu`` to its rate; during the remaining three quarters
it subtracts a half-sine of amplitude ``A / 3``.  The two halves integrate
to the same number of bytes, so the mean rate is unchanged, and the burst
injected per pulse is ``mu * T / (8 * pi)`` — about 4 % of a BDP when the
period equals the RTT.

The asymmetric shape lets a sender whose base rate is as low as ``A / 3``
pulse with peak amplitude ``A``; a symmetric sinusoid (provided for the
ablation study) would require a base rate of at least ``A``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod


class PulseShape(ABC):
    """A zero-mean periodic rate perturbation, as a fraction of ``mu``."""

    def __init__(self, frequency: float, pulse_fraction: float = 0.25) -> None:
        if frequency <= 0:
            raise ValueError("frequency must be positive")
        if pulse_fraction <= 0:
            raise ValueError("pulse_fraction must be positive")
        self.frequency = frequency
        self.pulse_fraction = pulse_fraction

    @property
    def period(self) -> float:
        """Pulse period T = 1 / fp in seconds."""
        return 1.0 / self.frequency

    @abstractmethod
    def offset_fraction(self, t: float) -> float:
        """Rate offset at time ``t`` as a (signed) fraction of ``mu``."""

    def offset(self, t: float, mu: float) -> float:
        """Rate offset at time ``t`` in bytes/s for a link of rate ``mu``."""
        return self.offset_fraction(t) * mu

    def min_base_fraction(self) -> float:
        """Smallest base rate (fraction of mu) that keeps the rate positive."""
        return -min(self.offset_fraction(i * self.period / 1000.0)
                    for i in range(1000))


class AsymmetricSinusoidPulse(PulseShape):
    """The paper's pulse: +A half-sine for T/4, then -A/3 half-sine for 3T/4."""

    def offset_fraction(self, t: float) -> float:
        phase = math.fmod(t, self.period)
        if phase < 0:
            phase += self.period
        quarter = self.period / 4.0
        amplitude = self.pulse_fraction
        if phase < quarter:
            # Positive half-sine over the first quarter period.
            return amplitude * math.sin(math.pi * phase / quarter)
        # Negative half-sine, one third the amplitude, over the rest.
        rest = self.period - quarter
        return -(amplitude / 3.0) * math.sin(math.pi * (phase - quarter) / rest)

    def min_base_fraction(self) -> float:
        return self.pulse_fraction / 3.0


class SymmetricSinusoidPulse(PulseShape):
    """A plain sinusoid at ``fp`` — the ablation baseline for pulse shaping."""

    def offset_fraction(self, t: float) -> float:
        return self.pulse_fraction * math.sin(2.0 * math.pi * self.frequency * t)

    def min_base_fraction(self) -> float:
        return self.pulse_fraction
