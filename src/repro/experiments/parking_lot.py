"""Parking-lot topology: one flow over every hop vs. per-hop cross flows.

The classic multi-bottleneck stress test the single-queue simulator could
not express: a *main* flow traverses a chain of N identical links, while
each cross flow enters at one hop and leaves at the next — so the main flow
competes at every queue against traffic that only pays the price of one.
Loss-based schemes are known to drive the main flow far below its 1/2 fair
share as N grows; the interesting question for Nimbus is whether the
elasticity detector still tracks cross traffic it only shares one hop with.

Every case runs through the scenario runtime (cached, batched); the hop
count, cross-flow count, rates, and delays are all plain numerics, so a
campaign manifest's ``[experiment.axes]`` (``hops = [2, 3, 5]``,
``cross_flows = [2, 4]``) sweeps them::

    python -m repro.experiments.runner parking_lot --duration 5
"""

from __future__ import annotations

from typing import Iterable, Tuple

from ..analysis.metrics import summarize_flow
from ..simulator import Flow, TopologyNetwork, mbps_to_bytes_per_sec
from .common import (
    MAIN_FLOW,
    ExperimentResult,
    LinkSpec,
    link_byte_table,
    make_multihop_network,
    make_scheme,
    queue_delay_stats,
    run_cases,
)

DEFAULT_SCHEMES = ("nimbus", "cubic", "vegas")


def hop_name(index: int) -> str:
    """Canonical name of hop ``index`` (0-based): ``hop1``, ``hop2``, ..."""
    return f"hop{index + 1}"


def build_network(hops: int = 3, link_mbps: float = 48.0,
                  hop_delay_ms: float = 10.0, buffer_ms: float = 100.0,
                  dt: float = 0.002, seed: int = 0) -> TopologyNetwork:
    """A chain of ``hops`` identical links named ``hop1 .. hopN``.

    The first hop is the monitor link: it is where the main flow meets the
    first cross flow, so its queue is the one the recorder tracks.
    """
    hops = int(hops)
    if hops < 1:
        raise ValueError("a parking lot needs at least one hop")
    links = tuple(LinkSpec(hop_name(i), link_mbps, delay_ms=hop_delay_ms,
                           buffer_ms=buffer_ms) for i in range(hops))
    return make_multihop_network(links, dt=dt, seed=seed,
                                 monitor=hop_name(0))


def add_cross_flows(network: TopologyNetwork, count: int,
                    scheme: str = "cubic", link_mbps: float = 48.0,
                    prop_rtt: float = 0.05,
                    stagger: float = 0.0) -> Tuple[Flow, ...]:
    """Add ``count`` single-hop cross flows, round-robin over the hops.

    Cross flow ``j`` enters the topology at hop ``j mod N`` and leaves at
    the next hop — the defining parking-lot contention pattern.
    """
    hops = len(network.topology.links)
    mu = mbps_to_bytes_per_sec(link_mbps)
    flows = []
    for j in range(int(count)):
        flow = Flow(cc=make_scheme(scheme, mu), prop_rtt=prop_rtt,
                    start_time=stagger * j, name=f"cross{j + 1}")
        network.add_flow(flow, path=(hop_name(j % hops),))
        flows.append(flow)
    return tuple(flows)


def run_case(scheme: str = "nimbus", hops: int = 3, cross_flows: int = 2,
             link_mbps: float = 48.0, hop_delay_ms: float = 10.0,
             buffer_ms: float = 100.0, prop_rtt: float = 0.05,
             cross_scheme: str = "cubic", cross_rtt: float = 0.05,
             cross_stagger: float = 1.0, duration: float = 30.0,
             dt: float = 0.002, seed: int = 0) -> dict:
    """One scheme through the parking lot, reduced to a picklable payload.

    The batch unit behind :func:`run`: executed in worker processes and
    memoised by the runtime, so only picklable summaries leave here.
    """
    hops = int(hops)
    cross_flows = int(cross_flows)
    network = build_network(hops=hops, link_mbps=link_mbps,
                            hop_delay_ms=hop_delay_ms, buffer_ms=buffer_ms,
                            dt=dt, seed=seed)
    mu = mbps_to_bytes_per_sec(link_mbps)
    network.add_flow(Flow(cc=make_scheme(scheme, mu), prop_rtt=prop_rtt,
                          name=MAIN_FLOW))
    add_cross_flows(network, cross_flows, scheme=cross_scheme,
                    link_mbps=link_mbps, prop_rtt=cross_rtt,
                    stagger=cross_stagger)
    network.run(duration)

    recorder = network.recorder
    warmup = duration / 6.0
    summary = summarize_flow(recorder, MAIN_FLOW, scheme=scheme,
                             start=warmup)
    per_hop = link_byte_table(network)
    for link, delay in zip(network.topology.links,
                           network.topology.delays):
        times, qdelay_ms = recorder.link_queue_delay_series(link.name)
        _, tput_mbps = recorder.link_throughput_series(link.name)
        _, drop_mbps = recorder.link_drop_series(link.name)
        settled = times >= warmup
        per_hop[link.name].update({
            "delay_ms": delay * 1e3,
            "queue_delay_ms_mean": (float(qdelay_ms[settled].mean())
                                    if settled.any() else 0.0),
            "throughput_mbps_mean": (float(tput_mbps[settled].mean())
                                     if settled.any() else 0.0),
            "drop_mbps_mean": (float(drop_mbps[settled].mean())
                               if settled.any() else 0.0),
        })
    cross_tput = {
        flow.name: recorder.mean_throughput(flow.name, start=warmup)
        for flow in network.flows[1:]
    }
    return {
        "scheme": scheme,
        "summary": summary,
        "extra": {
            "hops": hops,
            "cross_flows": cross_flows,
            "queue": queue_delay_stats(recorder, start=warmup),
            "main_share": (summary.mean_throughput_mbps
                           / link_mbps if link_mbps else 0.0),
        },
        "data": {
            "per_hop": per_hop,
            "cross_throughput_mbps": cross_tput,
        },
    }


def run(schemes: Iterable[str] = DEFAULT_SCHEMES,
        **params) -> ExperimentResult:
    """Run every scheme through the same parking lot as one cached batch."""
    result = ExperimentResult(name="parking_lot")
    run_cases(run_case, [dict(scheme=scheme) for scheme in schemes], result,
              **params)
    return result
