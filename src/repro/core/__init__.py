"""The paper's contribution: cross-traffic estimation, elasticity detection,
and the Nimbus mode-switching congestion controller.
"""

from ..cc.base import MODE_COMPETITIVE, MODE_DELAY
from .elasticity import (
    DetectorSample,
    ElasticityDetector,
    PulserDetector,
    Spectrum,
    cross_correlation_detector,
    elasticity_metric,
)
from .estimator import CrossTrafficEstimator, estimate_cross_traffic
from .multiflow import (
    ROLE_PULSER,
    ROLE_WATCHER,
    PulserElection,
    WatcherRateFilter,
)
from .nimbus import Nimbus
from .pulses import (
    AsymmetricSinusoidPulse,
    PulseShape,
    SymmetricSinusoidPulse,
)

__all__ = [
    "AsymmetricSinusoidPulse",
    "CrossTrafficEstimator",
    "DetectorSample",
    "ElasticityDetector",
    "MODE_COMPETITIVE",
    "MODE_DELAY",
    "Nimbus",
    "PulseShape",
    "PulserDetector",
    "PulserElection",
    "ROLE_PULSER",
    "ROLE_WATCHER",
    "Spectrum",
    "SymmetricSinusoidPulse",
    "WatcherRateFilter",
    "cross_correlation_detector",
    "elasticity_metric",
    "estimate_cross_traffic",
]
