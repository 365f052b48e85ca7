"""Internet-path emulation profiles (Figures 18, 19, 20 and Appendix A).

The paper measures Nimbus, Cubic, BBR and Vegas over 25 real paths between
EC2 servers and residential clients.  Real paths are not available offline,
so each path is replaced by an emulation *profile* capturing the properties
that drive the result: bottleneck rate, base RTT, buffer depth (deep
buffers vs. shallow/policed paths with drops), and the prevailing cross
traffic (mostly inelastic, occasionally with an elastic flow).

Each profile is realised as a real **two-hop path**: a wide, low-loss WAN
hop (the EC2-to-ISP leg, carrying roughly half of the path's propagation
delay) feeding the access bottleneck (rate, buffer, and queue policy from
the profile).  The main flow traverses both hops; last-mile cross traffic
enters at the access link only, so the measured flow crosses a backbone
that its competition never sees — the property that made single-queue
emulation of these paths an approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional

from ..analysis.metrics import summarize_flow
from ..cc import Cubic, NullCC
from ..simulator import Flow, mbps_to_bytes_per_sec
from ..traffic import PoissonSource, WanTrafficGenerator, WanWorkloadConfig
from .common import (
    MAIN_FLOW,
    ExperimentResult,
    LinkSpec,
    SchemeResult,
    add_main_flow,
    make_multihop_network,
    queue_delay_stats,
    run_cases,
)

#: Name of the access (bottleneck) hop in every emulated path.
ACCESS_LINK = "access"
#: Name of the backbone hop.
WAN_LINK = "wan"


@dataclass
class PathProfile:
    """One emulated Internet path."""

    name: str
    link_mbps: float
    prop_rtt: float
    buffer_ms: float
    #: Offered inelastic cross-traffic load as a fraction of the link.
    inelastic_load: float = 0.2
    #: Whether a long-running elastic flow shares the path.
    elastic_cross: bool = False
    #: Whether to use a WAN flow-arrival mix instead of plain Poisson.
    wan_mix: bool = False
    description: str = ""
    extra: dict = field(default_factory=dict)
    #: Backbone-hop rate in Mbit/s; default 4x the access rate (never the
    #: bottleneck, as on the paper's EC2-to-client paths).
    wan_mbps: Optional[float] = None
    #: One-way backbone propagation delay in ms; default half the path's
    #: base RTT.  The remainder (``prop_rtt - wan_delay``) is the access
    #: and return legs, so the end-to-end base RTT stays ``prop_rtt``.
    wan_delay_ms: Optional[float] = None

    def wan_rate_mbps(self) -> float:
        return self.wan_mbps if self.wan_mbps is not None \
            else 4.0 * self.link_mbps

    def wan_delay(self) -> float:
        delay = self.wan_delay_ms / 1e3 if self.wan_delay_ms is not None \
            else self.prop_rtt / 2.0
        if not 0.0 <= delay < self.prop_rtt:
            raise ValueError(
                f"wan_delay_ms must leave room for the access legs "
                f"(path RTT {self.prop_rtt * 1e3:.0f} ms, got "
                f"{delay * 1e3:.0f} ms)")
        return delay

    def access_rtt(self) -> float:
        """Two-way propagation of the access + return legs (flow prop_rtt)."""
        return self.prop_rtt - self.wan_delay()


#: A catalogue loosely modelled on the paper's path observations: most paths
#: are deep-buffered with predominantly inelastic cross traffic; a few are
#: shallow-buffered (drops/policers); a few see elastic competition.
DEFAULT_PROFILES: List[PathProfile] = [
    PathProfile("ec2-california-hostA", 40, 0.090, 200, 0.15,
                description="deep buffer, light inelastic cross traffic"),
    PathProfile("ec2-ireland-hostB", 90, 0.085, 150, 0.25,
                description="deep buffer, moderate inelastic cross traffic"),
    PathProfile("ec2-frankfurt-hostC", 30, 0.095, 25, 0.2,
                description="shallow buffer / policer: frequent drops"),
    PathProfile("ec2-london-hostD", 60, 0.070, 120, 0.3, wan_mix=True,
                description="deep buffer, WAN mix cross traffic"),
    PathProfile("ec2-paris-hostE", 50, 0.060, 100, 0.2, elastic_cross=True,
                description="deep buffer with a competing elastic flow"),
]


def run_case(scheme: str, profile: PathProfile, duration: float = 40.0,
             dt: float = 0.002, seed: int = 0) -> dict:
    """One scheme over one path profile; ``data`` is the mean RTT in ms.

    The main flow traverses backbone + access; cross traffic is last-mile
    (access hop only), except the WAN mix, which models transit flows
    sharing the whole path.
    """
    links = (
        LinkSpec(WAN_LINK, profile.wan_rate_mbps(),
                 delay_ms=profile.wan_delay() * 1e3, buffer_ms=200.0),
        LinkSpec(ACCESS_LINK, profile.link_mbps,
                 buffer_ms=profile.buffer_ms),
    )
    network = make_multihop_network(links, dt=dt, seed=seed,
                                    monitor=ACCESS_LINK)
    mu = mbps_to_bytes_per_sec(profile.link_mbps)
    access_rtt = profile.access_rtt()
    add_main_flow(network, scheme, profile.link_mbps, prop_rtt=access_rtt)
    if profile.wan_mix:
        generator = WanTrafficGenerator(network, WanWorkloadConfig(
            link_rate=mu, load=profile.inelastic_load,
            prop_rtt=access_rtt, seed=seed + 3))
        generator.start()
    elif profile.inelastic_load > 0:
        network.add_flow(Flow(
            cc=NullCC(), prop_rtt=profile.prop_rtt,
            source=PoissonSource(profile.inelastic_load * mu, seed=seed + 3),
            name="cross"), path=(ACCESS_LINK,))
    if profile.elastic_cross:
        network.add_flow(Flow(cc=Cubic(), prop_rtt=profile.prop_rtt,
                              name="cross-elastic"), path=(ACCESS_LINK,))
    network.run(duration)
    recorder, warmup = network.recorder, duration / 4.0
    label = f"{scheme}@{profile.name}"
    summary = summarize_flow(recorder, MAIN_FLOW, scheme=label, start=warmup)
    extra = dict(path=profile.name,
                 queue=queue_delay_stats(recorder, start=warmup))
    rtt_ms = recorder.rtt_samples(MAIN_FLOW) * 1e3
    return {"scheme": label, "summary": summary, "extra": extra,
            "data": float(rtt_ms.mean()) if rtt_ms.size else 0.0}


def run(profiles: Optional[Iterable[PathProfile]] = None,
        schemes: Iterable[str] = ("nimbus", "cubic", "bbr", "vegas"),
        **params) -> ExperimentResult:
    """Run every scheme over every path profile (Figs. 18 and 19)."""
    profiles = list(profiles) if profiles is not None else DEFAULT_PROFILES
    result = ExperimentResult(name="fig18_internet_paths")
    cases = [dict(scheme=scheme, profile=profile)
             for profile in profiles for scheme in schemes]
    payloads = run_cases(run_case, cases, result, **params)
    per_path: Dict[str, Dict[str, dict]] = {p.name: {} for p in profiles}
    for case, payload in zip(cases, payloads):
        per_path[case["profile"].name][case["scheme"]] = {
            "throughput_mbps": payload["summary"].mean_throughput_mbps,
            "mean_delay_ms": payload["summary"].mean_delay_ms,
            "mean_rtt_ms": payload["data"],
        }
    result.data = {"per_path": per_path}
    return result


def run_appendix_a(profile: Optional[PathProfile] = None,
                   **params) -> ExperimentResult:
    """Appendix A / Fig. 20: Cubic vs. the delay-control algorithm alone."""
    profile = profile if profile is not None else DEFAULT_PROFILES[0]
    result = ExperimentResult(name="fig20_inelastic_paths")
    schemes = ("cubic", "basicdelay")
    payloads = run_cases(run_case, [dict(scheme=s) for s in schemes],
                         profile=profile, **params)
    for scheme, payload in zip(schemes, payloads):
        result.schemes[scheme] = SchemeResult(
            scheme, replace(payload["summary"], scheme=scheme),
            dict(queue=payload["extra"]["queue"]))
    return result
