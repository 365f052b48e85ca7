"""Figure 6: distribution of the elasticity metric vs. elastic traffic share.

The cross traffic is a mix of one long-running Cubic flow and Poisson
(inelastic) traffic; the experiment varies the fraction of cross-traffic
bytes that are elastic from 0 % to 100 % and records the distribution of the
elasticity metric ``eta`` observed by a pulsing Nimbus flow.  Purely
inelastic traffic yields eta values near 1; any substantial elastic
component pushes the distribution above the threshold of 2.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..analysis.metrics import summarize_flow
from ..cc import Cubic, NullCC
from ..simulator import Flow, mbps_to_bytes_per_sec
from ..traffic import PoissonSource
from .common import (MAIN_FLOW, ExperimentResult, add_main_flow, make_network,
                     run_cases)

DEFAULT_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


def run_case(fraction: float, link_mbps: float = 96.0, prop_rtt: float = 0.05,
             buffer_ms: float = 100.0, duration: float = 40.0,
             cross_share: float = 0.5, dt: float = 0.002,
             seed: int = 0) -> dict:
    """The eta series of Nimbus against an elastic share of ``fraction``."""
    network = make_network(link_mbps, buffer_ms=buffer_ms, dt=dt, seed=seed)
    main = add_main_flow(network, "nimbus", link_mbps, prop_rtt=prop_rtt)
    inelastic_rate = (cross_share * mbps_to_bytes_per_sec(link_mbps)
                      * (1.0 - fraction))
    if inelastic_rate > 0:
        network.add_flow(Flow(
            cc=NullCC(), prop_rtt=prop_rtt,
            source=PoissonSource(inelastic_rate, seed=seed + 1),
            name="cross-inelastic"))
    if fraction > 0:
        network.add_flow(Flow(cc=Cubic(), prop_rtt=prop_rtt,
                              name="cross-elastic"))
    network.run(duration)

    series = np.array([eta for t, eta in main.cc.eta_history
                       if t > duration / 3])
    series = series[np.isfinite(series)]
    scheme = f"elastic-{int(fraction * 100)}%"
    summary = summarize_flow(network.recorder, MAIN_FLOW, scheme=scheme,
                             start=duration / 3)
    median = float(np.median(series)) if series.size else 0.0
    return {"scheme": scheme, "summary": summary,
            "extra": {"median_eta": median}, "data": series}


def run(elastic_fractions: Iterable[float] = DEFAULT_FRACTIONS,
        **params) -> ExperimentResult:
    """For each elastic fraction, collect the distribution of eta.

    ``cross_share`` is the approximate share of the link given to cross
    traffic; a fraction ``f`` of it is carried by a Cubic flow (elastic) and
    the rest by Poisson traffic (inelastic).  The elastic flow is windowed to
    roughly its target share by running it with a larger RTT when ``f`` is
    small; in practice what matters is only whether an elastic flow exists
    and how much of the bytes it carries.
    """
    result = ExperimentResult(name="fig06_elasticity_cdf")
    fractions = list(elastic_fractions)
    payloads = run_cases(
        run_case, [dict(fraction=fraction) for fraction in fractions], result,
        **params)
    result.data = {
        "etas": {f: p["data"] for f, p in zip(fractions, payloads)},
        "median_eta": {f: p["extra"]["median_eta"]
                       for f, p in zip(fractions, payloads)},
    }
    return result
