"""Traffic and workload generators: the paper's cross-traffic substrates."""

from .flowsize import (
    ELASTIC_THRESHOLD_BYTES,
    FlowSizeSample,
    HeavyTailedFlowSizes,
)
from .poisson import PoissonSource
from .scripted import Phase, ScriptedCrossTraffic
from .video import (
    LADDER_1080P_MBPS,
    LADDER_4K_MBPS,
    DashVideoSource,
    VideoConfig,
    video_1080p,
    video_4k,
)
from .wan import CrossFlowRecord, WanTrafficGenerator, WanWorkloadConfig

__all__ = [
    "CrossFlowRecord",
    "DashVideoSource",
    "ELASTIC_THRESHOLD_BYTES",
    "FlowSizeSample",
    "HeavyTailedFlowSizes",
    "LADDER_1080P_MBPS",
    "LADDER_4K_MBPS",
    "Phase",
    "PoissonSource",
    "ScriptedCrossTraffic",
    "VideoConfig",
    "WanTrafficGenerator",
    "WanWorkloadConfig",
    "video_1080p",
    "video_4k",
]
