"""Analysis utilities: summary metrics, classification accuracy, FCTs."""

from ..cc.base import MODE_COMPETITIVE, MODE_DELAY
from .accuracy import AccuracyReport, classification_accuracy, mode_fraction
from .fct import (
    DEFAULT_SIZE_BINS,
    FctBin,
    FctRecord,
    bin_label,
    fct_by_size,
    normalized_p95,
)
from .metrics import (
    ThroughputDelaySummary,
    cdf,
    jain_fairness,
    percentile,
    rate_cdf_over_intervals,
    summarize_flow,
)
# NOTE: repro.analysis.telemetry is deliberately NOT imported here — it is
# runnable as ``python -m repro.analysis.telemetry`` and importing it from
# the package __init__ would trigger runpy's double-import warning.

__all__ = [
    "AccuracyReport",
    "DEFAULT_SIZE_BINS",
    "FctBin",
    "FctRecord",
    "MODE_COMPETITIVE",
    "MODE_DELAY",
    "ThroughputDelaySummary",
    "bin_label",
    "cdf",
    "classification_accuracy",
    "fct_by_size",
    "jain_fairness",
    "mode_fraction",
    "normalized_p95",
    "percentile",
    "rate_cdf_over_intervals",
    "summarize_flow",
]
