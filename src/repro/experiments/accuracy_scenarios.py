"""Shared scenario runner for the classification-accuracy experiments.

Figures 14, 15, 25 and the Appendix E sweeps all follow the same recipe:
run a mode-switching flow (Nimbus or Copa) against synthetic cross traffic
whose elasticity is known by construction, and measure the fraction of time
the flow sits in the correct mode.  This module provides that recipe once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..analysis.accuracy import AccuracyReport, classification_accuracy
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


@dataclass
class CrossSpec:
    """Description of the synthetic cross traffic for an accuracy scenario.

    Attributes:
        kind: "none", "poisson", "cbr", "elastic", or "mix".
        rate_fraction: Offered inelastic rate as a fraction of the link rate
            (for poisson/cbr/mix).
        elastic_flows: Number of backlogged elastic flows (elastic/mix).
        elastic_rtts: Optional explicit RTTs for the elastic flows; when
            omitted they use ``rtt_ratio`` times the main flow's RTT.
        rtt_ratio: RTT of cross traffic relative to the main flow.
    """

    kind: str = "mix"
    rate_fraction: float = 0.25
    elastic_flows: int = 1
    elastic_rtts: Optional[Sequence[float]] = None
    rtt_ratio: float = 1.0
    elastic_cc_factory: type = NewReno
    extra: dict = field(default_factory=dict)

    @property
    def has_elastic(self) -> bool:
        return self.kind in ("elastic", "mix") and self.elastic_flows > 0


@dataclass
class AccuracyScenarioResult:
    """Outcome of one accuracy scenario."""

    scheme: str
    spec: CrossSpec
    report: AccuracyReport
    mean_throughput_mbps: float
    mean_queue_delay_ms: float


def install_cross_traffic(network, spec: CrossSpec, link_mbps: float,
                          prop_rtt: float, seed: int = 0) -> None:
    """Add the cross traffic described by ``spec`` to the network."""
    mu = mbps_to_bytes_per_sec(link_mbps)
    cross_rtt = prop_rtt * spec.rtt_ratio
    if spec.kind in ("poisson", "mix") and spec.rate_fraction > 0:
        network.add_flow(Flow(
            cc=NullCC(), prop_rtt=cross_rtt,
            source=PoissonSource(spec.rate_fraction * mu, seed=seed + 11),
            name="cross-inelastic"))
    elif spec.kind == "cbr" and spec.rate_fraction > 0:
        network.add_flow(Flow(
            cc=NullCC(), prop_rtt=cross_rtt,
            source=PacedSource(spec.rate_fraction * mu),
            name="cross-inelastic"))
    if spec.kind in ("elastic", "mix"):
        rtts = (list(spec.elastic_rtts) if spec.elastic_rtts is not None
                else [cross_rtt] * spec.elastic_flows)
        for i in range(spec.elastic_flows):
            network.add_flow(Flow(cc=spec.elastic_cc_factory(),
                                  prop_rtt=rtts[i % len(rtts)],
                                  name="cross-elastic"))


def run_accuracy_scenario(scheme: str, spec: CrossSpec,
                          link_mbps: float = 96.0, prop_rtt: float = 0.05,
                          buffer_ms: float = 100.0, duration: float = 60.0,
                          dt: float = 0.002, seed: int = 0,
                          aqm_target_ms: Optional[float] = None,
                          **scheme_overrides) -> AccuracyScenarioResult:
    """Run ``scheme`` against ``spec`` and score its mode decisions.

    The warmup excludes the first FFT window plus slow start; the ground
    truth is constant over the run (the cross traffic composition does not
    change), so accuracy is simply the fraction of post-warmup time spent in
    the correct mode — there is no transition to grant a settling time.
    """
    network = make_network(link_mbps, buffer_ms=buffer_ms, dt=dt, seed=seed,
                           aqm_target_ms=aqm_target_ms)
    add_main_flow(network, scheme, link_mbps, prop_rtt=prop_rtt,
                  **scheme_overrides)
    install_cross_traffic(network, spec, link_mbps, prop_rtt, seed=seed)
    network.run(duration)

    recorder = network.recorder
    times, modes = recorder.mode_series(MAIN_FLOW)
    warmup = max(8.0, 6.0 * prop_rtt + 6.0)
    report = classification_accuracy(
        times, modes, elastic_truth=lambda t: spec.has_elastic,
        warmup=warmup, settle=0.0)
    stats = queue_delay_stats(recorder, start=warmup)
    return AccuracyScenarioResult(
        scheme=scheme, spec=spec, report=report,
        mean_throughput_mbps=recorder.mean_throughput(MAIN_FLOW, start=warmup),
        mean_queue_delay_ms=stats["mean"])


def run_case(scheme: str = "nimbus", kind: str = "mix",
             rate_fraction: float = 0.25, elastic_flows: int = 1,
             rtt_ratio: float = 1.0, **scenario) -> AccuracyScenarioResult:
    """:func:`run_accuracy_scenario` from scalars: the batch unit of Figs. 14
    and 25 and Appendix E (``scenario``: its remaining keyword arguments)."""
    spec = CrossSpec(kind=kind, rate_fraction=float(rate_fraction),
                     elastic_flows=elastic_flows, rtt_ratio=float(rtt_ratio))
    return run_accuracy_scenario(scheme, spec, **scenario)
