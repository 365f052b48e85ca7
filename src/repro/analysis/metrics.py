"""Summary metrics: throughput/delay statistics, CDFs, fairness.

These are the quantities the paper reports in its figures: mean and median
throughput, per-packet delay percentiles, CDFs of RTT and rate over
1-second intervals (Fig. 9, 13, 19), and Jain's fairness index for the
multi-flow experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


def percentile(samples: Sequence[float], q: float) -> float:
    """The q-th percentile (0-100) of the samples, 0.0 if empty."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        return 0.0
    return float(np.percentile(arr, q))


def cdf(samples: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: returns (sorted values, cumulative probability)."""
    arr = np.sort(np.asarray(samples, dtype=float))
    if arr.size == 0:
        return np.array([]), np.array([])
    probs = np.arange(1, arr.size + 1) / arr.size
    return arr, probs


def jain_fairness(rates: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 means perfectly equal shares."""
    arr = np.asarray(rates, dtype=float)
    if arr.size == 0 or np.all(arr == 0):
        return 0.0
    # Normalise by the largest rate so tiny (denormal) values cannot
    # underflow to zero when squared.
    arr = arr / arr.max()
    return float(arr.sum() ** 2 / (arr.size * (arr ** 2).sum()))


@dataclass
class ThroughputDelaySummary:
    """The (throughput, delay) operating point the paper's scatter plots use."""

    scheme: str
    mean_throughput_mbps: float
    median_throughput_mbps: float
    mean_delay_ms: float
    median_delay_ms: float
    p95_delay_ms: float


def summarize_flow(recorder, name: str, scheme: str | None = None,
                   start: float = 0.0,
                   end: float | None = None) -> ThroughputDelaySummary:
    """Build a :class:`ThroughputDelaySummary` for flows labelled ``name``.

    ``recorder`` is a :class:`repro.simulator.trace.Recorder`; throughput is
    measured from delivered bytes per bin and delay from the per-chunk
    queueing delay samples plus nothing else (queueing delay is what the
    paper plots; propagation delay is constant per experiment).
    """
    times, tput = recorder.throughput_series(name)
    _, delays = recorder.queue_delay_series(name)
    if end is None:
        end = times[-1] + recorder.bin_width if len(times) else 0.0
    mask = (times >= start) & (times <= end)
    tput_sel = tput[mask] if len(times) else np.array([])
    delay_samples = recorder.queue_delay_samples(name) * 1e3
    delay_sel = delays[mask][delays[mask] > 0] if len(times) else np.array([])
    if delay_samples.size == 0:
        delay_samples = delay_sel
    return ThroughputDelaySummary(
        scheme=scheme if scheme is not None else name,
        mean_throughput_mbps=float(np.mean(tput_sel)) if tput_sel.size else 0.0,
        median_throughput_mbps=float(np.median(tput_sel)) if tput_sel.size else 0.0,
        mean_delay_ms=float(np.mean(delay_samples)) if delay_samples.size else 0.0,
        median_delay_ms=float(np.median(delay_samples)) if delay_samples.size else 0.0,
        p95_delay_ms=percentile(delay_samples, 95.0),
    )


def rate_cdf_over_intervals(recorder, name: str, interval: float = 1.0,
                            start: float = 0.0,
                            end: float | None = None
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """CDF of throughput measured over fixed intervals (Fig. 9 style)."""
    times, tput = recorder.throughput_series(name)
    if len(times) == 0:
        return np.array([]), np.array([])
    if end is None:
        end = times[-1]
    mask = (times >= start) & (times <= end)
    times, tput = times[mask], tput[mask]
    if len(times) == 0:
        return np.array([]), np.array([])
    bins_per_interval = max(1, int(round(interval / recorder.bin_width)))
    n = (len(tput) // bins_per_interval) * bins_per_interval
    if n == 0:
        return cdf(tput)
    coarse = tput[:n].reshape(-1, bins_per_interval).mean(axis=1)
    return cdf(coarse)
