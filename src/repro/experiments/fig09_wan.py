"""Figure 9 (and the basis of Figs. 10, 12, 13, 21): WAN cross traffic.

A bulk flow runs each scheme against cross traffic generated from a
heavy-tailed flow-size distribution with Poisson arrivals at 50 % load on a
96 Mbit/s, 50 ms, 100 ms-buffer link.  Nimbus should match Cubic and BBR's
throughput distribution while keeping the RTT distribution close to the
delay-based schemes (Vegas/Copa), which themselves lose throughput.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..analysis.fct import FctRecord
from ..analysis.metrics import rate_cdf_over_intervals, summarize_flow
from ..traffic import WanTrafficGenerator, WanWorkloadConfig
from ..simulator import mbps_to_bytes_per_sec
from .common import (
    MAIN_FLOW,
    ExperimentResult,
    FluidClassSpec,
    add_main_flow,
    make_network,
    queue_delay_stats,
    run_cases,
)


def wan_network(scheme: str, link_mbps: float = 96.0, prop_rtt: float = 0.05,
                buffer_ms: float = 100.0, load: float = 0.5,
                dt: float = 0.002, seed: int = 1, fluid: int = 0,
                fluid_arrivals: float = 0.0, **scheme_overrides):
    """Build one scheme against the WAN workload, not yet run: the
    ``(network, main flow, generator)`` a case (here, or Fig. 12's) runs,
    measures and discards.

    ``fluid=1`` replaces the per-flow cross-traffic generator with one
    fluid-aggregate elastic class at the same load (``fluid_arrivals``
    overrides its Poisson flow-arrival rate — how a run stands for 10^5
    background flows at unchanged cost); the default ``fluid=0`` is the
    per-flow path, bit-identical to a build without the parameters.
    """
    classes = (FluidClassSpec(
        "wan", kind="elastic", load=load, rtt_ms=prop_rtt * 1e3,
        arrivals_per_sec=fluid_arrivals or None, seed=seed),) if fluid else ()
    network = make_network(link_mbps, buffer_ms=buffer_ms, dt=dt, seed=seed,
                           fluid=classes)
    flow = add_main_flow(network, scheme, link_mbps, prop_rtt=prop_rtt,
                         **scheme_overrides)
    generator = None
    if not fluid:
        generator = WanTrafficGenerator(network, WanWorkloadConfig(
            link_rate=mbps_to_bytes_per_sec(link_mbps), load=load,
            prop_rtt=prop_rtt, seed=seed))
        generator.start()
    return network, flow, generator


def run_case(scheme: str, link_mbps: float = 96.0, prop_rtt: float = 0.05,
             buffer_ms: float = 100.0, load: float = 0.5,
             duration: float = 60.0, dt: float = 0.002, seed: int = 1,
             fluid: int = 0, fluid_arrivals: float = 0.0,
             **scheme_overrides) -> dict:
    """One scheme under the WAN workload, reduced to a picklable payload.

    This is the batch unit behind :func:`run` (and Fig. 13's load sweep):
    the runtime executes it in worker processes and memoises the returned
    payload, so only data leaves this function — summaries, arrays and
    :class:`~repro.analysis.fct.FctRecord` rows, never the network or a
    ``Flow``.
    """
    network, _, generator = wan_network(
        scheme, link_mbps=link_mbps, prop_rtt=prop_rtt, buffer_ms=buffer_ms,
        load=load, dt=dt, seed=seed,
        fluid=fluid, fluid_arrivals=fluid_arrivals, **scheme_overrides)
    network.run(duration)
    recorder = network.recorder
    warmup = duration / 6.0
    rate_values, rate_probs = rate_cdf_over_intervals(
        recorder, MAIN_FLOW, interval=1.0, start=warmup)
    rtt_samples = recorder.rtt_samples(MAIN_FLOW) * 1e3
    summary = summarize_flow(recorder, MAIN_FLOW, scheme=scheme, start=warmup)
    if generator is not None:
        cross_flows = len(generator.records)
        fct_records = [
            FctRecord(record.size_bytes, record.elastic, record.start_time,
                      record.fct)
            for record in generator.completed_records()]
        fluid_extra = {}
    else:
        cls = network.fluid_classes()[0]
        cross_flows = int(cls.flows_created)
        fct_records = []
        fluid_extra = {"fluid": {
            "offered_bytes": cls.total_offered,
            "served_bytes": cls.total_served,
            "dropped_bytes": cls.total_dropped,
            "flows_created": cls.flows_created,
        }}
    return {
        "scheme": scheme,
        "summary": summary,
        "extra": {
            "median_rtt_ms": (float(np.median(rtt_samples))
                              if rtt_samples.size else 0.0),
            "queue": queue_delay_stats(recorder, start=warmup),
            "cross_flows": cross_flows,
            **fluid_extra,
        },
        "data": {
            "rate_cdf": (rate_values, rate_probs),
            "rtt_samples_ms": rtt_samples,
            "fct_records": fct_records,
        },
    }


def run(schemes: Iterable[str] = ("nimbus", "cubic", "vegas"),
        **params) -> ExperimentResult:
    """Run the WAN workload for each scheme and collect rate/RTT CDFs."""
    result = ExperimentResult(name="fig09_wan")
    run_cases(run_case, [dict(scheme=scheme) for scheme in schemes], result,
              **params)
    return result
