"""Classification-accuracy scoring for mode-switching algorithms.

The paper's robustness experiments (§8.2) report the fraction of time a
Nimbus or Copa flow operates in the *correct* mode: TCP-competitive when
elastic cross traffic is present, delay-control when it is not.  The ground
truth comes from the workload generator (it knows which cross flows are
elastic); the observed mode comes from the recorder's mode series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..cc.base import MODE_COMPETITIVE


@dataclass
class AccuracyReport:
    """Outcome of scoring a mode series against ground truth."""

    accuracy: float
    samples: int
    correct: int
    time_in_competitive: float
    time_elastic_truth: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"accuracy={self.accuracy:.2%} over {self.samples} samples "
                f"(competitive {self.time_in_competitive:.2%}, "
                f"truth elastic {self.time_elastic_truth:.2%})")


def classification_accuracy(times: Sequence[float],
                            modes: Sequence[Optional[str]],
                            elastic_truth: Callable[[float], bool],
                            warmup: float = 0.0,
                            end: Optional[float] = None,
                            settle: float = 0.0) -> AccuracyReport:
    """Score a mode time series against a ground-truth function.

    Args:
        times: Bin centre times of the mode series.
        modes: Mode labels per bin (None bins are skipped).
        elastic_truth: ``elastic_truth(t)`` is True when elastic cross
            traffic is present at time ``t``.
        warmup: Initial period to exclude (the detector needs one FFT
            window of samples before its first decision).
        end: Optional end of the scoring window.
        settle: Grace period after each ground-truth transition during which
            either mode is accepted (the detector is allowed one FFT window
            to react, as in the paper's accuracy computations).
    """
    times = np.asarray(times, dtype=float)
    correct = 0
    counted = 0
    competitive = 0
    truth_elastic = 0

    # Pre-compute ground-truth transition times for the settle window.
    transitions: List[float] = []
    if settle > 0 and len(times) > 1:
        prev = elastic_truth(float(times[0]))
        for t in times[1:]:
            cur = elastic_truth(float(t))
            if cur != prev:
                transitions.append(float(t))
                prev = cur

    for t, mode in zip(times, modes):
        if mode is None or t < warmup:
            continue
        if end is not None and t > end:
            continue
        truth = elastic_truth(float(t))
        in_settle = any(0 <= t - tr < settle for tr in transitions)
        counted += 1
        if mode == MODE_COMPETITIVE:
            competitive += 1
        if truth:
            truth_elastic += 1
        predicted_elastic = (mode == MODE_COMPETITIVE)
        if predicted_elastic == truth or in_settle:
            correct += 1

    accuracy = correct / counted if counted else 0.0
    return AccuracyReport(
        accuracy=accuracy,
        samples=counted,
        correct=correct,
        time_in_competitive=competitive / counted if counted else 0.0,
        time_elastic_truth=truth_elastic / counted if counted else 0.0,
    )


def mode_fraction(modes: Sequence[Optional[str]], mode: str) -> float:
    """Fraction of non-None bins spent in the given mode."""
    known = [m for m in modes if m is not None]
    if not known:
        return 0.0
    return sum(1 for m in known if m == mode) / len(known)
