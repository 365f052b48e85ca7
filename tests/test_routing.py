"""Forwarding-table tests: tables, failover, blackholes, determinism.

Covers table-lookup forwarding end to end — node/link topology and table
construction, failure-driven reroute after the convergence delay,
graceful degradation into the explicit blackhole state, the three new
control-plane telemetry kinds, and — promoted to tier 1 per the roadmap —
the per-hop conservation audit running through an active reroute and
through a blackhole window.  The serial/pooled/legacy bit-identity check
mirrors ``tests/test_executor_robust.py::TestBitIdentity`` but over the
reroute driver, where the control-plane event *sequence* must also agree.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.analysis import telemetry as telemetry_cli
from repro.experiments import EXPERIMENT_INDEX, reroute
from repro.experiments.common import MAIN_FLOW, make_scheme
from repro.runtime import (
    BatchExecutor,
    FluidClassSpec,
    LinkSpec,
    RouteSpec,
    ScenarioSpec,
    make_multihop_network,
    make_topology,
)
from repro.runtime.cache import ResultCache
from repro.runtime.spec import canonicalize
from repro.simulator import (
    FaultEvent,
    Flow,
    ListTraceSink,
    Topology,
    TopologyNetwork,
    mbps_to_bytes_per_sec,
    validate_trace_record,
)
from repro.simulator.routing import convergence_pass

RUN_CASE = "repro.experiments.reroute:run_case"

#: The driver's primary/backup two-path topology, test-sized.
LINKS = (LinkSpec("primary", 96.0, delay_ms=10.0, src="S", dst="M"),
         LinkSpec("backup", 64.0, delay_ms=20.0, src="S", dst="M"),
         LinkSpec("bottleneck", 48.0, src="M", dst="D"))


def _topology(routes=()) -> Topology:
    return make_topology(LINKS, monitor="bottleneck", routes=routes)


def _network(convergence_ms: float = 50.0, faults=(), dt: float = 0.002,
             seed: int = 1, flow: bool = True, fluid=()) -> TopologyNetwork:
    network = make_multihop_network(LINKS, dt=dt, seed=seed,
                                    monitor="bottleneck", faults=faults,
                                    fluid=fluid,
                                    convergence_ms=convergence_ms)
    if flow:
        mu = mbps_to_bytes_per_sec(48.0)
        network.add_flow(Flow(cc=make_scheme("cubic", mu), prop_rtt=0.05,
                              name=MAIN_FLOW), src="S", dst="D")
    return network


def _link(network, name):
    return network.topology.links[network.topology.index_of(name)]


def _route_names(network, flow_id: int = 0):
    return tuple(link.name for link in network.route_of(flow_id))


def _table(topology, table, node, destination):
    """One ``[node][destination]`` entry of ``candidates`` / ``next_hop``."""
    return getattr(topology, table)[topology.node_index(node)][
        topology.node_index(destination)]


class TestRoutedTopology:
    def test_duplicate_node_rejected(self):
        topology = Topology()
        topology.add_node("S")
        with pytest.raises(ValueError, match="duplicate node"):
            topology.add_node("S")

    def test_plain_attach_extends_the_chain(self):
        """An endpoint-less link leaves the node the previous link ended
        at and ends at a fresh node — on any graph, not only on chains."""
        topology = _topology()
        topology.add_link("tail", 1e6)
        position = topology.index_of("tail")
        assert topology.link_src[position] == topology.node_index("D")
        assert topology.link_dst[position] == len(topology.nodes) - 1
        # The fresh node is reachable from everywhere upstream.
        assert topology.next_hop[topology.node_index("M")][-1] == \
            topology.index_of("bottleneck")

    def test_link_requires_known_nodes(self):
        topology = Topology()
        topology.add_node("S")
        with pytest.raises(KeyError, match="no node named 'M'"):
            topology.add_link("up", 1e6, src="S", dst="M")
        assert topology.links == [] and topology.nodes == ["S"]

    def test_self_loop_link_rejected(self):
        topology = Topology()
        topology.add_node("S")
        with pytest.raises(ValueError, match="loop"):
            topology.add_link("up", 1e6, src="S", dst="S")

    def test_compute_routes_primary_then_backup(self):
        topology = _topology()
        # Both S->M links tie on hop count; attachment order breaks the
        # tie, so `primary` (position 0) leads and is the active choice.
        assert _table(topology, "candidates", "S", "D") == (0, 1)
        assert _table(topology, "next_hop", "S", "D") == 0
        assert _table(topology, "candidates", "S", "M") == (0, 1)
        # D is a sink: nothing routes back, and D's own table is empty.
        assert set(topology.candidates[topology.node_index("D")]) == {()}
        assert _table(topology, "candidates", "M", "S") == ()

    def test_set_route_validates_origin(self):
        topology = _topology()
        with pytest.raises(ValueError, match="does not originate"):
            topology.set_route("M", "D", ["primary"])

    def test_set_route_to_self_rejected(self):
        topology = _topology()
        with pytest.raises(ValueError, match="cannot route to itself"):
            topology.set_route("S", "S", ["primary"])

    def test_explicit_route_overrides_computed(self):
        topology = _topology(routes=(RouteSpec("S", "D",
                                               ("backup", "primary")),))
        assert _table(topology, "next_hop", "S", "D") == \
            topology.index_of("backup")
        # A pinned entry survives the recompute a later attachment runs.
        topology.add_link("tail", 1e6)
        assert _table(topology, "candidates", "S", "D") == (1, 0)

    def test_empty_candidate_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            _topology().set_route("S", "D", [])


class TestRoutedNetworkConstruction:
    def test_chain_topology_takes_a_convergence_delay(self):
        """One engine: a plain chain accepts the routing parameter (its
        single route has no backup, so a flap blackholes, then recovers)."""
        network = make_multihop_network(
            (LinkSpec("a", 48.0, delay_ms=5.0), LinkSpec("b", 24.0)),
            dt=0.002, convergence_ms=50.0,
            faults=(FaultEvent("link_flap", "a", 0.5, 0.5),))
        mu = mbps_to_bytes_per_sec(24.0)
        network.add_flow(Flow(cc=make_scheme("cubic", mu), prop_rtt=0.05))
        assert _route_names(network) == ("a", "b")
        network.run(0.8)
        assert network._entry_links[0] is None and _route_names(network) == ()
        network.run(1.2)
        assert network._entry_links[0] is not None
        assert _route_names(network) == ("a", "b")

    def test_negative_convergence_rejected(self):
        with pytest.raises(ValueError, match="convergence_delay"):
            TopologyNetwork(_topology(), convergence_delay=-0.1)

    def test_add_flow_defaults_to_first_and_last_node(self):
        network = _network(flow=False)
        mu = mbps_to_bytes_per_sec(48.0)
        network.add_flow(Flow(cc=make_scheme("cubic", mu), prop_rtt=0.05))
        assert _route_names(network) == ("primary", "bottleneck")

    def test_same_endpoints_rejected(self):
        network = _network(flow=False)
        mu = mbps_to_bytes_per_sec(48.0)
        with pytest.raises(ValueError, match="must differ"):
            network.add_flow(Flow(cc=make_scheme("cubic", mu),
                                  prop_rtt=0.05), src="S", dst="S")

    def test_path_and_endpoints_are_exclusive(self):
        network = _network(flow=False)
        mu = mbps_to_bytes_per_sec(48.0)
        with pytest.raises(ValueError, match="not both"):
            network.add_flow(Flow(cc=make_scheme("cubic", mu),
                                  prop_rtt=0.05),
                             path=("bottleneck",), dst="D")
        assert network.flows == []

    def test_flow_start_reports_current_path(self):
        network = _network(flow=False)
        sink = ListTraceSink(events=("flow_start",))
        network.set_trace_sink(sink)
        mu = mbps_to_bytes_per_sec(48.0)
        network.add_flow(Flow(cc=make_scheme("cubic", mu), prop_rtt=0.05,
                              name=MAIN_FLOW), src="S", dst="D")
        assert sink.records[0]["path"] == ["primary", "bottleneck"]

    def test_path_cross_flow_on_a_graph_is_delivered(self):
        """``path=`` is spelling for endpoints on any topology: a cross
        flow entering at M shares only the bottleneck with the main flow."""
        network = _network()
        sink = ListTraceSink(events=("enqueue",), flows=("cross",))
        network.set_trace_sink(sink)
        cross = network.add_flow(
            Flow(cc=make_scheme("cubic", mbps_to_bytes_per_sec(48.0)),
                 prop_rtt=0.05, name="cross"), path=("bottleneck",))
        assert _route_names(network, cross.flow_id) == ("bottleneck",)
        network.run(2.0)
        assert network.recorder.mean_throughput("cross") > 0.0
        assert cross.stats.bytes_delivered > 0.0
        # It reports its real position: node M, not the head of the graph.
        assert {r["hop"] for r in sink.records} == \
            {network.topology.node_index("M")}
        assert {r["link"] for r in sink.records} == {"bottleneck"}


class TestFailover:
    FLAP = (FaultEvent("link_flap", "primary", 1.0, 1.0),)

    def test_reroute_waits_for_convergence_delay(self):
        network = _network(convergence_ms=50.0, faults=self.FLAP)
        network.run(1.02)
        assert not _link(network, "primary").up
        # Down but not yet converged: traffic still aims at the dead link.
        assert _route_names(network) == ("primary", "bottleneck")
        network.run(1.1)
        assert _route_names(network) == ("backup", "bottleneck")

    def test_failback_after_restore(self):
        network = _network(convergence_ms=50.0, faults=self.FLAP)
        network.run(1.9)
        assert _route_names(network) == ("backup", "bottleneck")
        network.run(2.2)
        assert _link(network, "primary").up
        assert _route_names(network) == ("primary", "bottleneck")

    def test_zero_convergence_reroutes_immediately(self):
        network = _network(convergence_ms=0.0, faults=self.FLAP)
        network.run(1.0 + 3 * network.dt)
        assert _route_names(network) == ("backup", "bottleneck")

    def test_traffic_survives_on_backup(self):
        network = _network(convergence_ms=50.0, faults=self.FLAP)
        network.run(1.1)
        served_at_converge = _link(network, "backup").total_served
        network.run(1.9)
        assert _link(network, "backup").total_served > served_at_converge
        assert network._entry_links[0] is not None

    def test_route_change_events_validate_and_pair(self):
        network = _network(convergence_ms=50.0, faults=self.FLAP)
        sink = ListTraceSink(events=("route_change",))
        network.set_trace_sink(sink)
        network.run(3.0)
        records = sink.records
        # Node S re-resolves both destinations (M and D) at failover and
        # again at failback; M's bottleneck entry never moves.
        assert len(records) == 4
        for record in records:
            validate_trace_record(record)
        assert all(record["node"] == "S" for record in records)
        over = [r for r in records if r["time"] == pytest.approx(2.05)]
        assert {r["from_link"] for r in over} == {"backup"}
        assert {r["to_link"] for r in over} == {"primary"}

    def test_convergence_pass_is_idempotent(self):
        network = _network(convergence_ms=50.0, faults=self.FLAP)
        sink = ListTraceSink(events=("route_change",))
        network.set_trace_sink(sink)
        network.run(1.2)
        seen = len(sink.records)
        convergence_pass(network)(network.now)  # nothing changed since
        assert len(sink.records) == seen

    def test_audit_clean_through_reroute(self, monkeypatch):
        """Tier-1: the conservation audit re-checks every few ticks while
        the flap, the convergence pass, and the failback all happen."""
        monkeypatch.setenv("REPRO_AUDIT", "16")
        network = _network(convergence_ms=50.0, faults=self.FLAP)
        network.run(3.0)  # would raise AuditError on any leaked byte
        network.audit_conservation()
        assert _link(network, "bottleneck").total_served > 0


class TestFluidOnTheBackup:
    def test_audit_clean_through_failover_and_blackhole(self, monkeypatch):
        """A fluid class loading `backup` shares that queue with rerouted
        chunk traffic through a failover (primary flap) and then sits out
        a blackhole window (bottleneck flap) — conservation, fluid terms
        included, is re-checked every 16 ticks throughout."""
        monkeypatch.setenv("REPRO_AUDIT", "16")
        network = _network(
            faults=(FaultEvent("link_flap", "primary", 0.5, 0.75),
                    FaultEvent("link_flap", "bottleneck", 1.75, 0.5,
                               drop_queued=True)),
            fluid=(FluidClassSpec("bg", kind="inelastic", link="backup",
                                  load=0.4, rtt_ms=50.0, seed=3),))
        backup = _link(network, "backup")
        network.run(1.0)
        assert _route_names(network) == ("backup", "bottleneck")
        network.run(1.2)
        assert backup.total_served > 0.0  # chunks rode the fluid's link
        network.run(2.0)
        assert network._entry_links[0] is None
        network.audit_conservation()  # mid-window: must not raise
        network.run(3.0)
        assert network._entry_links[0] is not None
        network.audit_conservation()
        (fluid,) = network.fluid_classes()
        assert fluid.total_served > 0.0


class TestBlackhole:
    FLAP = (FaultEvent("link_flap", "bottleneck", 1.0, 1.0,
                       drop_queued=True),)

    def test_no_survivor_blackholes_then_recovers(self):
        network = _network(convergence_ms=50.0, faults=self.FLAP)
        sink = ListTraceSink(events=("blackhole_start", "blackhole_end",
                                     "route_change"))
        network.set_trace_sink(sink)
        network.run(1.1)
        assert network._entry_links[0] is None
        assert _route_names(network) == ()
        network.run(2.2)
        assert network._entry_links[0] is not None
        assert _route_names(network) == ("primary", "bottleneck")
        kinds = [r["event"] for r in sink.records]
        assert kinds.count("blackhole_start") == 1
        assert kinds.count("blackhole_end") == 1
        for record in sink.records:
            validate_trace_record(record)
        start = next(r for r in sink.records
                     if r["event"] == "blackhole_start")
        assert start["flow"] == MAIN_FLOW
        assert start["node"] == "S" and start["destination"] == "D"
        # M's table entry for D lost its only candidate: to_link is None.
        dead = next(r for r in sink.records if r["event"] == "route_change"
                    and r["node"] == "M")
        assert dead["to_link"] is None

    def test_blackholed_emissions_surface_as_loss(self):
        network = _network(convergence_ms=50.0, faults=self.FLAP)
        sink = ListTraceSink(events=("loss",))
        network.set_trace_sink(sink)
        network.run(1.05)
        before = len(sink.records)
        network.run(1.6)  # mid-blackhole: every emission becomes a loss
        assert len(sink.records) > before

    def test_unreachable_destination_accepted_blackholed(self):
        network = _network(flow=False)
        network.topology.add_node("X")  # an island: no links touch it
        sink = ListTraceSink(events=("flow_start", "blackhole_start"))
        network.set_trace_sink(sink)
        mu = mbps_to_bytes_per_sec(48.0)
        network.add_flow(Flow(cc=make_scheme("cubic", mu), prop_rtt=0.05,
                              name=MAIN_FLOW), src="S", dst="X")
        assert network._entry_links[0] is None
        assert sink.records[0]["path"] == []
        assert sink.records[1]["event"] == "blackhole_start"

    def test_audit_clean_through_blackhole_window(self, monkeypatch):
        """Tier-1: conservation holds while the only route is down, its
        queue has been flushed, and the flow is emitting into the hole."""
        monkeypatch.setenv("REPRO_AUDIT", "16")
        network = _network(convergence_ms=50.0, faults=self.FLAP)
        network.run(1.5)
        assert network._entry_links[0] is None
        network.audit_conservation()  # mid-window: must not raise
        network.run(3.0)
        network.audit_conservation()


class TestRoutedTelemetry:
    def test_flow_filter_keeps_control_plane_kinds(self):
        network = _network(faults=(FaultEvent("link_flap", "primary",
                                              0.5, 0.5),))
        sink = ListTraceSink(flows=("no-such-flow",))
        network.set_trace_sink(sink)
        network.run(1.5)
        kinds = {r["event"] for r in sink.records}
        # route_change has no flow envelope and survives the flow filter,
        # like fault events; blackhole records carry a flow and drop out.
        assert kinds == {"fault_start", "fault_end", "route_change"}

    def test_validator_rejects_malformed_route_change(self):
        with pytest.raises(ValueError, match="route_change"):
            validate_trace_record({"time": 0.0, "event": "route_change",
                                   "node": "S", "destination": "D",
                                   "from_link": "primary"})

    def test_cli_require_flag(self, tmp_path):
        network = _network(faults=(FaultEvent("link_flap", "primary",
                                              0.5, 0.5),))
        sink = ListTraceSink()
        network.set_trace_sink(sink)
        network.run(1.5)
        path = tmp_path / "trace.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for record in sink.records:
                handle.write(json.dumps(record) + "\n")
        ok = telemetry_cli.main(["validate", "--kind", "trace",
                                 "--require", "route_change", str(path)])
        assert ok == 0
        missing = telemetry_cli.main(["validate", "--kind", "trace",
                                      "--require", "blackhole_start",
                                      str(path)])
        assert missing == 1
        with pytest.raises(SystemExit):
            telemetry_cli.main(["summary", "--kind", "trace",
                                "--require", "route_change", str(path)])


class TestSpecPlumbing:
    def test_routing_spec_canonicalises(self):
        frozen = canonicalize((LINKS, (RouteSpec("S", "D", ("backup",)),)))
        assert pickle.loads(pickle.dumps(frozen)) == frozen

    def test_convergence_delay_in_cache_key(self):
        base = dict(scheme="cubic", period=3.0, duration=6.0, dt=0.008,
                    seed=1)
        fast = ScenarioSpec.make(RUN_CASE, convergence_ms=10.0, **base)
        slow = ScenarioSpec.make(RUN_CASE, convergence_ms=250.0, **base)
        assert fast.spec_hash() != slow.spec_hash()
        assert fast.spec_hash() == \
            ScenarioSpec.make(RUN_CASE, convergence_ms=10.0,
                              **base).spec_hash()

    def test_driver_registered(self):
        assert EXPERIMENT_INDEX["reroute"] == f"{reroute.__name__}:run"


class TestRerouteDriver:
    CASE = dict(scheme="cubic", period=3.0, convergence_ms=50.0,
                phase_duration=2.0, duration=6.0, dt=0.008, seed=1)

    def test_run_case_payload_shape(self):
        payload = reroute.run_case(**self.CASE)
        extra = payload["extra"]
        assert extra["fault_windows"] >= 1
        assert extra["route_changes"] >= 2  # failover + failback
        assert extra["blackhole_seconds"] == pytest.approx(0.0)
        assert set(payload["data"]["per_link"]) == \
            {"primary", "backup", "bottleneck"}
        for record in payload["data"]["route_events"]:
            validate_trace_record(record)

    def test_route_events_bit_identical_across_executors(self):
        """Acceptance: the reroute payload — control-plane event sequence
        included — agrees byte for byte across legacy in-process, hardened
        serial, and pooled subprocess execution."""
        specs = [ScenarioSpec.make(RUN_CASE, label="cubic", **self.CASE)]
        cold = dict(cache=ResultCache(enabled=False))
        legacy = BatchExecutor(workers=1, **cold).run(specs)
        serial = BatchExecutor(workers=1, timeout=300.0, **cold).run(specs)
        pooled = BatchExecutor(workers=2, timeout=300.0, **cold).run(specs)
        dumps = [pickle.dumps(batch) for batch in (legacy, serial, pooled)]
        assert dumps[0] == dumps[1] == dumps[2]
        assert legacy[0]["extra"]["route_changes"] >= 2
