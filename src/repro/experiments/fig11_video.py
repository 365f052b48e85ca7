"""Figure 11: throughput/delay with DASH video cross traffic.

Two variants: a 4K stream whose bitrate ladder exceeds its fair share of the
48 Mbit/s link (network-limited, hence elastic cross traffic) and a 1080p
stream that is application-limited (inelastic).  Against the 1080p stream
all schemes get similar throughput but the delay-controlling ones achieve
much lower delay; against the 4K stream, Vegas and Copa are starved while
Nimbus matches Cubic.
"""

from __future__ import annotations

from typing import Iterable

from ..analysis.metrics import summarize_flow
from ..cc import Cubic
from ..simulator import Flow
from ..traffic import video_1080p, video_4k
from .common import (MAIN_FLOW, ExperimentResult, add_main_flow, make_network,
                     queue_delay_stats, run_cases)


def run_case(scheme: str, video_kind: str, link_mbps: float = 48.0,
             prop_rtt: float = 0.05, buffer_ms: float = 100.0,
             duration: float = 60.0, dt: float = 0.002, seed: int = 0) -> dict:
    """One scheme against one DASH stream (``video_kind`` "4k" or "1080p")."""
    warmup = duration / 4.0
    network = make_network(link_mbps, buffer_ms=buffer_ms, dt=dt, seed=seed)
    add_main_flow(network, scheme, link_mbps, prop_rtt=prop_rtt)
    source = video_4k() if video_kind == "4k" else video_1080p()
    network.add_flow(Flow(cc=Cubic(), prop_rtt=prop_rtt, source=source,
                          name="video"))
    network.run(duration)
    recorder = network.recorder
    label = f"{scheme}@{video_kind}"
    summary = summarize_flow(recorder, MAIN_FLOW, scheme=label, start=warmup)
    extra = dict(
        video_kind=video_kind,
        video_throughput=recorder.mean_throughput("video", start=warmup),
        video_rebuffer_s=source.rebuffer_time,
        queue=queue_delay_stats(recorder, start=warmup))
    return {"scheme": label, "summary": summary, "extra": extra, "data": None}


def run(schemes: Iterable[str] = ("nimbus", "cubic", "vegas"),
        video_kinds: Iterable[str] = ("4k", "1080p"),
        **params) -> ExperimentResult:
    """Run each scheme against each video type."""
    result = ExperimentResult(name="fig11_video")
    run_cases(run_case, [dict(scheme=scheme, video_kind=kind)
                         for kind in video_kinds for scheme in schemes],
              result, **params)
    return result
