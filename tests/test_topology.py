"""Multi-hop topology engine: per-hop invariants, single-link equivalence."""

from __future__ import annotations

import gc
import pickle

import pytest

from repro.cc import Cubic, NullCC
from repro.runtime.build import (
    LinkSpec,
    make_multihop_network,
    make_network,
    make_topology,
)
from repro.simulator import (
    BottleneckLink,
    DropTail,
    Flow,
    Topology,
    TopologyNetwork,
    mbps_to_bytes_per_sec,
)
from repro.simulator.source import PacedSource

MU = mbps_to_bytes_per_sec(24.0)


def _chain(hops=3, capacity=MU, buffer_bytes=None, delay=0.01, dt=0.002):
    topology = Topology("chain")
    for index in range(hops):
        policy = DropTail(buffer_bytes) if buffer_bytes else None
        topology.add_link(f"hop{index + 1}", capacity, delay=delay,
                          policy=policy)
    return TopologyNetwork(topology, dt=dt)


# --------------------------------------------------------------------- #
# Topology data model
# --------------------------------------------------------------------- #
class TestTopologyModel:
    def test_duplicate_link_names_rejected(self):
        topology = Topology()
        topology.add_link("a", MU)
        with pytest.raises(ValueError):
            topology.add_link("a", MU)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Topology().add_link("a", MU, delay=-0.001)

    def test_lookup_by_name(self):
        topology = Topology()
        link = topology.add_link("a", MU, delay=0.005)
        assert topology.link("a") is link
        assert topology.index_of("a") == 0
        assert topology.delays[topology.index_of("a")] == 0.005
        with pytest.raises(KeyError):
            topology.link("missing")

    def test_monitor_defaults_to_first_link(self):
        topology = Topology()
        first = topology.add_link("a", MU)
        topology.add_link("b", MU)
        assert topology.monitor_link is first
        topology.set_monitor("b")
        assert topology.monitor_link is topology.link("b")

    def test_resolve_path_variants(self):
        topology = Topology()
        topology.add_link("a", MU)
        topology.add_link("b", MU)
        assert topology.resolve_path("b") == (1,)
        assert topology.resolve_path(("a", "b")) == (0, 1)
        assert topology.resolve_path(["a", 1]) == (0, 1)
        assert topology.resolve_path((1,)) == (1,)
        with pytest.raises(ValueError):
            topology.resolve_path(())
        with pytest.raises(ValueError):
            topology.resolve_path(("a", "a"))
        with pytest.raises(KeyError):
            topology.resolve_path(("nope",))
        with pytest.raises(IndexError):
            topology.resolve_path((7,))

    def test_path_validates(self):
        """Consecutive links must share a node: a path that skips a hop
        (or runs backwards) used to teleport chunks between queues."""
        network = _chain(hops=3)
        topology = network.topology
        for bad in (("hop1", "hop3"), ("hop2", "hop1"), (0, 2)):
            with pytest.raises(ValueError, match="not contiguous"):
                topology.resolve_path(bad)
        with pytest.raises(ValueError, match="not contiguous"):
            network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05),
                             path=("hop1", "hop3"))
        assert network.flows == [] and network._next_flow_id == 0

    def test_endpointless_links_form_a_chain(self):
        topology = _chain(hops=3).topology
        assert topology.link_src == [0, 1, 2]
        assert topology.link_dst == [1, 2, 3]
        # One outgoing link per node: the only route is the chain itself.
        assert topology.next_hop[0][1:] == [0, 0, 0]
        assert topology.candidates[1][3] == (1,)
        assert topology.next_hop[2][0] is None

    def test_engine_requires_a_link(self):
        with pytest.raises(ValueError):
            TopologyNetwork(Topology())

    def test_add_flow_with_bad_path_leaves_engine_untouched(self):
        """A rejected path must not half-register the flow: the engine
        keeps running and later flows get consistent ids/routes."""
        network = _chain(hops=2)
        with pytest.raises(KeyError):
            network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05),
                             path=("typo",))
        assert network.flows == [] and network._next_flow_id == 0
        flow = network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="ok"))
        assert flow.flow_id == 0
        network.run(0.5)
        assert network.recorder.mean_throughput("ok") > 0.0

    def test_route_of(self):
        network = _chain(hops=3)
        network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05))
        network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05), path=("hop2",))
        network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05),
                         path=("hop2", "hop3"))
        assert [link.name for link in network.route_of(0)] == \
            ["hop1", "hop2", "hop3"]
        assert [link.name for link in network.route_of(1)] == ["hop2"]
        assert [link.name for link in network.route_of(2)] == \
            ["hop2", "hop3"]


# --------------------------------------------------------------------- #
# Per-hop invariants
# --------------------------------------------------------------------- #
class TestPerHopInvariants:
    def test_conservation_at_every_hop(self):
        """bytes in == bytes out + queued + dropped at each hop, with a
        buffer small enough that the interior hops actually drop."""
        network = _chain(hops=3, buffer_bytes=MU * 0.03)
        network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="main"))
        network.add_flow(Flow(cc=Cubic(), prop_rtt=0.04, name="x1"),
                         path=("hop1",))
        network.add_flow(Flow(cc=Cubic(), prop_rtt=0.04, name="x2"),
                         path=("hop2",))
        network.run(6.0)
        dropped_somewhere = 0.0
        for link in network.topology.links:
            assert link.total_offered > 0.0
            balance = link.total_served + link.queue_bytes + link.total_drops
            assert link.total_offered == pytest.approx(balance, abs=1e-6)
            dropped_somewhere += link.total_drops
        assert dropped_somewhere > 0.0

    def test_inter_hop_bytes_never_materialise_from_nowhere(self):
        """A downstream hop can only be offered bytes its predecessor has
        served (the difference is in flight between the hops)."""
        network = _chain(hops=3)
        network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="main"))
        network.run(5.0)
        links = network.topology.links
        for before, after in zip(links, links[1:]):
            assert after.total_offered <= before.total_served + 1e-6

    def test_fifo_ordering_across_hops(self):
        """Deliveries of each flow arrive in strictly increasing sequence
        order: store-and-forward hops never reorder a flow's bytes."""
        deliveries = {}
        topology = Topology("chain")
        for index in range(3):
            topology.add_link(f"hop{index + 1}", MU, delay=0.005,
                              policy=DropTail(MU * 0.04))
        network = TopologyNetwork(topology, dt=0.002)
        record = network.recorder.on_delivery

        def probe(flow, chunk, now):
            deliveries.setdefault(chunk.flow_id, []).append(
                (chunk.seq, chunk.size))
            record(flow, chunk, now)

        network.recorder.on_delivery = probe
        network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="main"))
        network.add_flow(Flow(cc=Cubic(), prop_rtt=0.03, name="cross"),
                         path=("hop2",))
        network.run(6.0)
        assert deliveries, "no chunks delivered"
        for flow_id, records in deliveries.items():
            position = -1.0
            for seq, size in records:
                # 1e-3 bytes of slack: split-chunk remainders recompute
                # ``seq + size`` in a different float association than this
                # loop does; real reordering is off by whole chunks.
                assert seq >= position - 1e-3, f"flow {flow_id} reordered"
                position = seq + size

    def test_multihop_base_rtt_adds_link_delays(self):
        """End-to-end base RTT == sum of intermediate link delays + the
        flow's own prop_rtt, measured on an uncongested path."""
        network = _chain(hops=3, delay=0.01, dt=0.001)
        # A lightly paced flow so queues stay empty.
        network.add_flow(Flow(cc=NullCC(), prop_rtt=0.04, name="probe",
                              source=PacedSource(rate=MU / 100.0)))
        network.run(3.0)
        flow = network.flows[0]
        # hop1 and hop2 delays count; hop3 is the last hop (receiver leg
        # comes from prop_rtt).  Ticks quantise service, so allow a few dt.
        expected = 0.01 + 0.01 + 0.04
        measured = flow.measurement.min_rtt
        # The tick clock accumulates dt in floats, so allow ULP-scale slack
        # below and a few ticks of service quantisation above.
        assert expected - 1e-9 <= measured <= expected + 0.005

    def test_drops_at_interior_hop_reach_the_sender(self):
        """Loss feedback from a hop the flow shares with nobody else."""
        topology = Topology()
        topology.add_link("wide", 4 * MU, delay=0.005)
        topology.add_link("narrow", MU / 2, delay=0.0,
                          policy=DropTail(MU * 0.02))
        network = TopologyNetwork(topology, dt=0.002)
        network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="main"))
        network.run(6.0)
        flow = network.flows[0]
        assert network.topology.link("narrow").total_drops > 0.0
        assert flow.stats.bytes_lost > 0.0
        # Conservation still holds at the dropping hop.
        narrow = network.topology.link("narrow")
        assert narrow.total_offered == pytest.approx(
            narrow.total_served + narrow.queue_bytes + narrow.total_drops,
            abs=1e-6)


# --------------------------------------------------------------------- #
# Single-link equivalence: make_network vs a hand-built one-link Topology
# --------------------------------------------------------------------- #
def _cruise_fingerprint(network):
    network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="cubic"))
    network.run(4.0)
    recorder = network.recorder
    times, tput = recorder.throughput_series("cubic")
    qtimes, qdelay = recorder.link_queue_delay_series()
    flow = network.flows[0]
    return pickle.dumps((
        times.tobytes(), tput.tobytes(), qtimes.tobytes(), qdelay.tobytes(),
        flow.stats.bytes_sent, flow.stats.bytes_delivered,
        recorder.rtt_samples("cubic").tobytes(), flow.measurement.inflight,
        network.link.total_served, network.link.total_drops,
        network.link.queue_bytes, network.now, network._counter,
    ))


class TestLegacyEquivalence:
    def test_single_link_topology_is_bit_identical_to_network(self):
        built = make_network(24.0, buffer_ms=100.0, dt=0.002, seed=0)
        topology = Topology()
        topology.attach(BottleneckLink(MU, policy=DropTail(MU * 0.1)))
        general = TopologyNetwork(topology, dt=0.002)
        assert _cruise_fingerprint(built) == _cruise_fingerprint(general)

    def test_network_is_a_one_hop_topology(self):
        network = make_network(24.0, dt=0.002)
        assert type(network) is TopologyNetwork
        assert [link.name for link in network.topology.links] == \
            ["bottleneck"]
        assert network.topology.monitor_link is network.link
        flow = network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05))
        assert network.route_of(flow.flow_id) == (network.link,)


# --------------------------------------------------------------------- #
# Runtime factories
# --------------------------------------------------------------------- #
class TestFactories:
    def test_make_topology_monitor_defaults_to_narrowest(self):
        topology = make_topology((LinkSpec("wan", 96.0, delay_ms=20.0),
                                  LinkSpec("access", 24.0)))
        assert topology.monitor_link.name == "access"
        assert topology.delays[topology.index_of("wan")] == pytest.approx(0.020)

    def test_make_topology_explicit_monitor_and_aqm(self):
        topology = make_topology(
            (LinkSpec("a", 48.0), LinkSpec("b", 48.0, aqm_target_ms=20.0)),
            monitor="b")
        assert topology.monitor_link.name == "b"
        assert type(topology.link("b").policy).__name__ == "Pie"
        assert type(topology.link("a").policy).__name__ == "DropTail"

    def test_make_topology_rejects_empty(self):
        with pytest.raises(ValueError):
            make_topology(())

    def test_make_multihop_network_runs(self):
        network = make_multihop_network(
            (LinkSpec("a", 48.0, delay_ms=10.0), LinkSpec("b", 24.0)),
            dt=0.002, seed=3)
        network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="main"))
        network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="cross"),
                         path=("b",))
        network.run(3.0)
        assert network.recorder.mean_throughput("main") > 0.0
        assert network.link.name == "b"


def test_a_routed_case_leaves_no_cyclic_garbage():
    """Once ``run_case`` returns, reference counting alone frees the
    network: a collection finds nothing of this package to reclaim."""
    from repro.experiments import parking_lot

    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        parking_lot.run_case(duration=3.0)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = sorted({f"{type(obj).__module__}.{type(obj).__qualname__}"
                         for obj in gc.garbage
                         if type(obj).__module__.startswith("repro.")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert leaked == []
