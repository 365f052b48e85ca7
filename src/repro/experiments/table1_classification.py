"""Table 1: how the elasticity detector classifies different cross traffic.

For each cross-traffic type the paper lists whether it is elastic, whether
it is ACK-clocked, and how the detector classifies it.  The reproduction
runs a pulsing Nimbus flow against a single cross flow of each type and
reports the detector's majority decision:

==============  =======  ===========  ==============
Cross traffic   Elastic  ACK-clocked  Classification
==============  =======  ===========  ==============
Cubic           yes      yes          elastic
Reno            yes      yes          elastic
Copa            yes      yes          elastic
Vegas           yes      yes          elastic
BBR             yes      if cwnd-limited  elastic (deep buffer)
PCC-Vivace      yes      no           inelastic
Fixed window    yes      yes          elastic
App. limited    no       no           inelastic
Const. stream   no       no           inelastic
==============  =======  ===========  ==============
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional

from ..analysis.accuracy import mode_fraction
from ..analysis.metrics import summarize_flow
from ..cc import (MODE_COMPETITIVE, MODE_DELAY, Bbr, Copa, Cubic, FixedWindow,
                  NewReno, NullCC, Vegas, Vivace)
from ..simulator import Flow, mbps_to_bytes_per_sec
from ..simulator.source import PacedSource
from ..traffic import PoissonSource
from .common import (MAIN_FLOW, ExperimentResult, add_main_flow, make_network,
                     run_cases)


@dataclass
class TrafficClass:
    """One row of Table 1."""

    name: str
    expected: str                       # "elastic" or "inelastic"
    make_flow: Callable[[float, float, int], Flow]


def _backlogged(cc_factory: Callable) -> Callable[[float, float, int], Flow]:
    def make(mu: float, prop_rtt: float, seed: int) -> Flow:
        return Flow(cc=cc_factory(), prop_rtt=prop_rtt, name="cross")
    return make


def _app_limited(mu: float, prop_rtt: float, seed: int) -> Flow:
    # A Cubic flow limited by its application to ~15% of the link.
    return Flow(cc=Cubic(), prop_rtt=prop_rtt,
                source=PacedSource(0.15 * mu), name="cross")


def _constant_stream(mu: float, prop_rtt: float, seed: int) -> Flow:
    return Flow(cc=NullCC(), prop_rtt=prop_rtt,
                source=PoissonSource(0.4 * mu, seed=seed), name="cross")


TRAFFIC_CLASSES: Dict[str, TrafficClass] = {
    "cubic": TrafficClass("cubic", "elastic", _backlogged(Cubic)),
    "reno": TrafficClass("reno", "elastic", _backlogged(NewReno)),
    "copa": TrafficClass("copa", "elastic", _backlogged(Copa)),
    "vegas": TrafficClass("vegas", "elastic", _backlogged(Vegas)),
    "bbr": TrafficClass("bbr", "elastic", _backlogged(Bbr)),
    "pcc-vivace": TrafficClass("pcc-vivace", "inelastic", _backlogged(Vivace)),
    "fixed-window": TrafficClass("fixed-window", "elastic",
                                 _backlogged(lambda: FixedWindow(200))),
    "app-limited": TrafficClass("app-limited", "inelastic", _app_limited),
    "constant-stream": TrafficClass("constant-stream", "inelastic",
                                    _constant_stream),
}


def classify(traffic: str, link_mbps: float = 96.0, prop_rtt: float = 0.05,
             buffer_ms: float = 100.0, duration: float = 40.0,
             dt: float = 0.002, seed: int = 0) -> dict:
    """Run Nimbus against one traffic class and report the majority decision
    (``mode_accuracy``: the share of scored bins spent in the mode the
    paper's table expects).  ``seed`` also draws the cross flow's start,
    uniform over [0, 1) s (five pulse periods), from a private stream."""
    spec = TRAFFIC_CLASSES[traffic]
    network = make_network(link_mbps, buffer_ms=buffer_ms, dt=dt, seed=seed)
    mu = mbps_to_bytes_per_sec(link_mbps)
    add_main_flow(network, "nimbus", link_mbps, prop_rtt=prop_rtt)
    network.add_flow(spec.make_flow(mu, prop_rtt, seed + 5),
                     start=random.Random(seed).random())
    network.run(duration)
    recorder, warmup = network.recorder, 10.0
    times, modes = recorder.mode_series(MAIN_FLOW)
    post_warmup = [m for t, m in zip(times, modes) if t > warmup and m]
    competitive_fraction = mode_fraction(post_warmup, MODE_COMPETITIVE)
    classification = "elastic" if competitive_fraction >= 0.5 else "inelastic"
    label = f"nimbus@{traffic}"
    return {
        "scheme": label,
        "summary": summarize_flow(recorder, MAIN_FLOW, scheme=label,
                                  start=warmup),
        "extra": {
            "traffic": traffic,
            "expected": spec.expected,
            "classification": classification,
            "competitive_fraction": competitive_fraction,
            "correct": classification == spec.expected,
            "mode_accuracy": mode_fraction(
                post_warmup, MODE_COMPETITIVE if spec.expected == "elastic"
                else MODE_DELAY),
        },
        "data": None,
    }


def run(traffic_classes: Optional[Iterable[str]] = None,
        **kwargs) -> ExperimentResult:
    """Classify each requested traffic class (all of Table 1 by default)."""
    names = (list(traffic_classes) if traffic_classes is not None
             else list(TRAFFIC_CLASSES))
    result = ExperimentResult(name="table1_classification",
                              parameters=dict(traffic_classes=names,
                                              **kwargs))
    payloads = run_cases(classify, [dict(traffic=name) for name in names],
                         result, **kwargs)
    rows = {name: payload["extra"] for name, payload in zip(names, payloads)}
    result.data["rows"] = rows
    result.data["all_correct"] = all(r["correct"] for r in rows.values())
    return result
