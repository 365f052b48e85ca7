"""Feedback-clocked flows are woken, not polled — and it changes nothing.

A flow that found no budget and that only feedback can unblock is passed
over by ``TopologyNetwork._emit_all`` until an ACK, a loss or ``stop``
clears its mark.  The oracle here is the engine as it was before: a
subclass on which no flow qualifies, so every roster flow is asked every
tick.  Both engines must produce the same flows, events and series, over
Hypothesis-drawn mixes built to hit every way a flow is woken.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc import Cubic, NewReno, NullCC, Vegas
from repro.runtime import LinkSpec, make_topology
from repro.simulator import (
    FaultEvent,
    FaultSchedule,
    FiniteSource,
    Flow,
    TopologyNetwork,
    mbps_to_bytes_per_sec,
)
from repro.simulator.units import MSS_BYTES
from repro.traffic import PoissonSource

DT = 0.002
UNTIL = 3.0


class PollEverything(TopologyNetwork):
    """The oracle: no flow qualifies, so none is ever marked or passed over
    (a mark cleared only around ``_emit_all`` would still be there for the
    recorder to see)."""

    def add_flow(self, flow, *args, **kwargs):
        flow._feedback_clocked = False
        return super().add_flow(flow, *args, **kwargs)


_WINDOWED = {"cubic": Cubic, "newreno": NewReno, "vegas": Vegas}

#: Finite sizes: inside one segment, whole segments, and whole segments plus
#: half a byte (the remainder no emission can carry).
_sizes = st.one_of(
    st.sampled_from([120.0, 700.5, MSS_BYTES - 0.25]),
    st.integers(min_value=1, max_value=200).map(lambda k: k * MSS_BYTES),
    st.integers(min_value=1, max_value=60).map(lambda k: k * MSS_BYTES + 0.5))

_finite_flows = st.lists(
    st.tuples(st.sampled_from(sorted(_WINDOWED)), _sizes,
              st.sampled_from([0.01, 0.05, 0.12]),                # prop_rtt
              st.floats(min_value=0.0, max_value=2.0).map(
                  lambda t: round(t, 3))),                        # start
    min_size=2, max_size=8)

_scenarios = st.fixed_dictionaries({
    "mbps": st.sampled_from([6.0, 12.0, 48.0]),
    "buffer_ms": st.sampled_from([4.0, 15.0, 100.0]),   # small: loss feedback
    "finite": _finite_flows,
    "flap_at": st.sampled_from([None, 0.6, 1.3]),  # drop_queued + blackhole
    "stop_at": st.floats(min_value=0.2, max_value=2.5),
    "seed": st.integers(min_value=0, max_value=50),
})


def build(engine, scenario):
    """The scenario on ``engine``; returns (network, never_marked flows)."""
    links = (LinkSpec("access", 4 * scenario["mbps"], delay_ms=5.0,
                      src="S", dst="M"),
             LinkSpec("bottleneck", scenario["mbps"],
                      buffer_ms=scenario["buffer_ms"], src="M", dst="D"))
    # One route and a convergence delay: while the bottleneck is down the
    # table has no survivor, so every flow is blackholed until it returns.
    network = engine(make_topology(links, monitor="bottleneck",
                                   seed=scenario["seed"]),
                     dt=DT, convergence_delay=0.05)
    if scenario["flap_at"] is not None:
        FaultSchedule((FaultEvent("link_flap", "bottleneck",
                                  scenario["flap_at"], 0.3,
                                  drop_queued=True),)).apply(network)
    mu = mbps_to_bytes_per_sec(scenario["mbps"])
    bulk = network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="bulk"))
    network.schedule_call(scenario["stop_at"], bulk.stop)
    for index, (cc, size, rtt, start) in enumerate(scenario["finite"]):
        network.add_flow(Flow(cc=_WINDOWED[cc](), prop_rtt=rtt,
                              source=FiniteSource(size), start_time=start,
                              name=f"finite{index}"))
    paced_window = Cubic()
    paced_window.rate = 0.3 * mu    # window-limited at times, but paced
    constant_rate = NullCC()
    constant_rate.rate = 0.1 * mu   # paced, no window
    never_marked = [
        network.add_flow(Flow(cc=constant_rate, prop_rtt=0.05, name="cbr")),
        network.add_flow(Flow(cc=paced_window, prop_rtt=0.05,
                              name="paced-cubic")),
        network.add_flow(Flow(cc=NullCC(), prop_rtt=0.05, name="poisson",
                              source=PoissonSource(0.1 * mu,
                                                   seed=scenario["seed"]))),
    ]
    return network, never_marked


def outcome(network):
    """Everything the two engines must agree on."""
    recorder = network.recorder
    per_flow = [(flow.next_seq, flow.stats.bytes_delivered,
                 flow.stats.bytes_lost, flow.stats.end_time, flow.fct)
                for flow in network.flows]
    series = {"link_queue_delay": recorder.link_queue_delay_series()}
    for name in recorder.link_names():
        series["link_throughput", name] = \
            recorder.link_throughput_series(name)
        series["link_drop", name] = recorder.link_drop_series(name)
    for flow in network.flows:
        fid = flow.flow_id
        series["throughput", fid] = recorder.throughput_series(flow_id=fid)
        series["queue_delay", fid] = recorder.queue_delay_series(flow_id=fid)
        series["rtt", fid] = (recorder.rtt_samples(flow_id=fid),)
        series["qdelay_samples", fid] = (
            recorder.queue_delay_samples(flow_id=fid),)
    return per_flow, network.engine_stats()["events_executed"], series


@settings(max_examples=12, deadline=None)
@given(_scenarios)
def test_waking_equals_polling_and_nothing_waits_for_ever(scenario):
    network, never_marked = build(TopologyNetwork, scenario)
    flows = network.flows
    waited = 0
    while network.now < UNTIL - 1e-12:
        network.step()
        waited += sum(flow._waiting for flow in flows)
        # Paced and time-fed flows are asked every tick, whatever happens.
        assert not any(flow._waiting for flow in never_marked)
    assert waited > 0  # the mechanism was exercised, not bypassed

    # No eternal wait: a waiting flow has bytes in flight whose ACK or loss
    # notification will wake it.  (Under one byte in flight and unfinished
    # would be a flow nothing can ever wake.)
    for flow in flows:
        if flow._waiting:
            assert flow.active and flow.inflight >= 1.0, flow

    oracle, _ = build(PollEverything, scenario)
    oracle.run(UNTIL)
    per_flow, events, series = outcome(network)
    oracle_per_flow, oracle_events, oracle_series = outcome(oracle)
    assert per_flow == oracle_per_flow
    assert events == oracle_events
    assert series.keys() == oracle_series.keys()
    for key in series:
        for mine, reference in zip(series[key], oracle_series[key]):
            assert np.array_equal(mine, reference), key
    # A finite flow keeps no per-sample series, so what is compared for it
    # is its bins and its FCT: a flow that delivered has non-empty bins.
    for flow in flows:
        if flow.name.startswith("finite") and flow.stats.bytes_delivered:
            assert series["throughput", flow.flow_id][1].any()
            assert not series["rtt", flow.flow_id][0].size


def test_every_finite_flow_of_a_clean_run_finishes():
    """Sizes no emission can carry exactly still complete, and are gone."""
    scenario = {"mbps": 48.0, "buffer_ms": 100.0, "flap_at": None,
                "stop_at": 0.5, "seed": 1,
                "finite": [("cubic", 700.5, 0.05, 0.0),
                           ("vegas", 10 * MSS_BYTES + 0.5, 0.01, 0.1),
                           ("newreno", 37 * MSS_BYTES + 0.5, 0.12, 0.2),
                           ("cubic", 200 * MSS_BYTES, 0.05, 0.3)]}
    network, never_marked = build(TopologyNetwork, scenario)
    network.run(UNTIL)
    finite = [flow for flow in network.flows
              if flow.name.startswith("finite")]
    assert all(flow.finished and flow.fct is not None for flow in finite)
    assert network.roster == [flow.flow_id
                                         for flow in never_marked]
