"""Shared scenario runner for the classification-accuracy experiments.

Figures 14, 15, 25 and the Appendix E sweeps all follow the same recipe:
run a mode-switching flow (Nimbus or Copa) against synthetic cross traffic
whose elasticity is known by construction, and measure the fraction of time
the flow sits in the correct mode.  This module provides that recipe once:
:func:`run_case` is the cached batch unit of all four, and
:func:`cross_traffic` the one table of their named traffic categories.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..analysis.accuracy import classification_accuracy
from ..analysis.metrics import summarize_flow
from ..cc import NewReno, NullCC
from ..simulator import Flow, mbps_to_bytes_per_sec
from ..simulator.source import PacedSource
from ..traffic import PoissonSource
from .common import (
    MAIN_FLOW,
    add_main_flow,
    make_network,
    queue_delay_stats,
)


def cross_traffic(category: str, inelastic_fraction: float = 0.5,
                  elastic_flows: int = 1) -> dict:
    """The :func:`run_case` scalars of a named cross-traffic category.

    ``"elastic"`` is ``elastic_flows`` backlogged flows, ``"poisson"`` a
    Poisson stream offering ``inelastic_fraction`` of the link, and ``"mix"``
    one backlogged flow plus a stream at half that fraction.
    """
    if category == "elastic":
        return dict(kind="elastic", elastic_flows=elastic_flows,
                    rate_fraction=0.0)
    if category == "mix":
        return dict(kind="mix", elastic_flows=1,
                    rate_fraction=inelastic_fraction / 2.0)
    if category == "poisson":
        return dict(kind="poisson", elastic_flows=0,
                    rate_fraction=inelastic_fraction)
    raise ValueError(f"unknown cross-traffic category {category!r}")


def run_case(scheme: str = "nimbus", kind: str = "mix",
             rate_fraction: float = 0.25, elastic_flows: int = 1,
             rtt_ratio: float = 1.0,
             elastic_rtts: Optional[Sequence[float]] = None,
             link_mbps: float = 96.0, prop_rtt: float = 0.05,
             buffer_ms: float = 100.0, duration: float = 60.0,
             dt: float = 0.002, seed: int = 0,
             aqm_target_ms: Optional[float] = None,
             **scheme_overrides) -> dict:
    """Run ``scheme`` against synthetic cross traffic and score its mode
    decisions: the batch unit of Figs. 14, 15 and 25 and Appendix E.

    The cross traffic is ``kind`` — "none", "poisson", "cbr", "elastic" or
    "mix": an inelastic stream offering ``rate_fraction`` of the link
    (poisson / cbr / mix) and ``elastic_flows`` backlogged NewReno flows
    (elastic / mix), all at ``rtt_ratio`` times the main flow's RTT unless
    ``elastic_rtts`` gives the elastic flows' RTTs outright.

    The warmup excludes the first FFT window plus slow start; the ground
    truth is constant over the run (the cross traffic composition does not
    change), so accuracy is simply the fraction of post-warmup time spent in
    the correct mode — there is no transition to grant a settling time.
    """
    rate_fraction, rtt_ratio = float(rate_fraction), float(rtt_ratio)
    network = make_network(link_mbps, buffer_ms=buffer_ms, dt=dt, seed=seed,
                           aqm_target_ms=aqm_target_ms)
    add_main_flow(network, scheme, link_mbps, prop_rtt=prop_rtt,
                  **scheme_overrides)
    mu = mbps_to_bytes_per_sec(link_mbps)
    cross_rtt = prop_rtt * rtt_ratio
    if kind in ("poisson", "mix") and rate_fraction > 0:
        network.add_flow(Flow(
            cc=NullCC(), prop_rtt=cross_rtt,
            source=PoissonSource(rate_fraction * mu, seed=seed + 11),
            name="cross-inelastic"))
    elif kind == "cbr" and rate_fraction > 0:
        network.add_flow(Flow(
            cc=NullCC(), prop_rtt=cross_rtt,
            source=PacedSource(rate_fraction * mu), name="cross-inelastic"))
    if kind not in ("elastic", "mix"):
        elastic_flows = 0
    rtts = list(elastic_rtts or [cross_rtt])
    for i in range(elastic_flows):
        network.add_flow(Flow(cc=NewReno(), prop_rtt=rtts[i % len(rtts)],
                              name="cross-elastic"))
    network.run(duration)

    recorder = network.recorder
    times, modes = recorder.mode_series(MAIN_FLOW)
    warmup = max(8.0, 6.0 * prop_rtt + 6.0)
    report = classification_accuracy(
        times, modes, elastic_truth=lambda t: elastic_flows > 0,
        warmup=warmup, settle=0.0)
    return {
        "scheme": scheme,
        "summary": summarize_flow(recorder, MAIN_FLOW, scheme=scheme,
                                  start=warmup),
        "extra": {
            "mode_accuracy": report.accuracy,
            "time_in_competitive": report.time_in_competitive,
            "kind": kind,
            "rate_fraction": rate_fraction,
            "elastic_flows": elastic_flows,
            "rtt_ratio": rtt_ratio,
            "queue": queue_delay_stats(recorder, start=warmup),
        },
        "data": None,
    }
