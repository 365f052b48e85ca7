"""Chaos-layer tests: deterministic fault injection on topology networks.

Covers the two fault kinds (capacity dips, drain/drop link flaps),
schedule validation, telemetry, and — promoted to tier 1 — the per-hop
conservation audit running through a short parking lot with and without
an injected flap.
"""

from __future__ import annotations

import pickle

import pytest

from _list_trace_sink import ListTraceSink
from repro.experiments import link_flap, parking_lot
from repro.experiments.common import MAIN_FLOW
from repro.runtime import flap_fault_specs
from repro.runtime.build import LinkSpec, make_multihop_network
from repro.runtime.spec import canonicalize, decanonicalize
from repro.simulator import (
    Flow,
    FaultEvent,
    FaultSchedule,
    mbps_to_bytes_per_sec,
    validate_trace_record,
)
from repro.simulator.topology import AuditError


def _two_hop(seed: int = 1, dt: float = 0.002, faults=()):
    links = (LinkSpec("wan", 96.0, delay_ms=10.0, buffer_ms=100.0),
             LinkSpec("bottleneck", 48.0, buffer_ms=100.0))
    network = make_multihop_network(links, dt=dt, seed=seed,
                                    monitor="bottleneck", faults=faults)
    from repro.experiments.common import make_scheme
    mu = mbps_to_bytes_per_sec(48.0)
    network.add_flow(Flow(cc=make_scheme("cubic", mu), prop_rtt=0.05,
                          name=MAIN_FLOW))
    return network


def _link(network, name):
    return network.topology.links[network.topology.index_of(name)]


class TestFaultEventValidation:
    def test_unknown_kind_rejected(self):
        # Removed kinds are rejected like any other unknown name.
        for kind in ("meteor_strike", "delay_jitter", "burst_loss"):
            with pytest.raises(ValueError, match="unknown fault kind"):
                FaultEvent(kind, "wan", 0.0, 1.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="start"):
            FaultEvent("link_flap", "wan", -1.0, 1.0)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            FaultEvent("link_flap", "wan", 0.0, 0.0)

    def test_bad_factor_rejected(self):
        with pytest.raises(ValueError, match="factor"):
            FaultEvent("capacity_dip", "wan", 0.0, 1.0, factor=0.0)

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ValueError, match="overlapping"):
            FaultSchedule([FaultEvent("link_flap", "wan", 1.0, 2.0),
                           FaultEvent("capacity_dip", "wan", 2.5, 1.0)])

    def test_same_window_different_links_allowed(self):
        schedule = FaultSchedule([FaultEvent("link_flap", "wan", 1.0, 2.0),
                                  FaultEvent("link_flap", "lan", 1.0, 2.0)])
        assert len(schedule) == 2

    def test_touching_windows_restore_before_apply(self):
        """Back-to-back windows on one link: the earlier window's restore
        runs before the later window's effect, so the second dip scales
        the *nominal* capacity — never the already-dipped one."""
        network = _two_hop(faults=(
            FaultEvent("capacity_dip", "wan", 1.0, 1.0, factor=0.5),
            FaultEvent("capacity_dip", "wan", 2.0, 1.0, factor=0.25),))
        wan = _link(network, "wan")
        nominal = wan.capacity
        network.run(1.5)
        assert wan.capacity == pytest.approx(nominal * 0.5)
        network.run(2.5)
        # Second window active: 0.25 * nominal, not 0.25 * 0.5 * nominal.
        assert wan.capacity == pytest.approx(nominal * 0.25)
        network.run(3.5)
        assert wan.capacity == nominal  # the exact original float

    def test_unknown_link_rejected_at_apply(self):
        network = _two_hop()
        schedule = FaultSchedule([FaultEvent("link_flap", "nope", 1.0, 1.0)])
        with pytest.raises(KeyError):
            schedule.apply(network)


class TestCapacityDip:
    def test_capacity_scaled_and_restored_exactly(self):
        network = _two_hop(faults=(
            FaultEvent("capacity_dip", "wan", 0.5, 0.5, factor=0.25),))
        wan = _link(network, "wan")
        nominal = wan.capacity
        network.run(0.75)
        assert wan.capacity == pytest.approx(nominal * 0.25)
        network.run(2.0)
        # The exact original float, not a recomputation.
        assert wan.capacity == nominal

    def test_deep_dip_throttles_throughput(self):
        calm = _two_hop()
        calm.run(6.0)
        dipped = _two_hop(faults=(
            FaultEvent("capacity_dip", "wan", 2.0, 3.0, factor=0.05),))
        dipped.run(6.0)
        assert (_link(dipped, "bottleneck").total_served
                < 0.8 * _link(calm, "bottleneck").total_served)


class TestLinkFlap:
    def test_drain_flap_freezes_queue_and_recovers(self):
        network = _two_hop(faults=(
            FaultEvent("link_flap", "bottleneck", 1.0, 0.5),))
        link = _link(network, "bottleneck")
        network.run(1.2)
        assert not link.up
        served_down = link.total_served
        queued_down = link.queue_bytes
        network.step()
        # Down: nothing served, arrivals still admitted (drain policy).
        assert link.total_served == served_down
        assert link.queue_bytes >= queued_down
        network.run(3.0)
        assert link.up
        assert link.total_served > served_down

    def test_drop_flap_flushes_queue_and_blackholes(self):
        network = _two_hop(faults=(
            FaultEvent("link_flap", "bottleneck", 1.0, 0.5,
                       drop_queued=True),))
        link = _link(network, "bottleneck")
        network.run(0.9)
        assert link.queue_bytes > 0  # cubic fills the buffer
        network.run(1.2)
        assert not link.up
        assert link.queue_bytes == 0.0
        assert link.total_drops > 0
        offered_down = link.total_offered
        network.step()
        # Blackhole: offered bytes while down go straight to drops.
        assert link.total_drops >= link.total_offered - link.total_served \
            - link.queue_bytes - 1e-6
        assert link.total_offered >= offered_down
        network.run(3.0)
        assert link.up

    def test_conservation_holds_mid_flap(self):
        for drop_queued in (False, True):
            network = _two_hop(faults=(
                FaultEvent("link_flap", "bottleneck", 1.0, 1.0,
                           drop_queued=drop_queued),))
            network.run(1.5)
            assert not _link(network, "bottleneck").up
            network.audit_conservation()  # mid-window: must not raise
            network.run(3.0)
            network.audit_conservation()

    def test_flush_emits_loss_feedback(self):
        network = _two_hop(faults=(
            FaultEvent("link_flap", "bottleneck", 1.0, 0.5,
                       drop_queued=True),))
        sink = ListTraceSink()
        network.trace_sink = sink
        network.run(2.5)
        drops = sink.of("drop")
        losses = sink.of("loss")
        assert drops and losses  # the flush surfaced as sender feedback


class TestFaultTelemetry:
    def test_fault_events_validate_and_pair(self):
        network = _two_hop(faults=(
            FaultEvent("capacity_dip", "wan", 0.5, 0.5, factor=0.5),
            FaultEvent("link_flap", "bottleneck", 1.5, 0.5,
                       drop_queued=True),))
        sink = ListTraceSink()
        network.trace_sink = sink
        network.run(4.0)
        faults = [r for r in sink.records
                  if r["event"] in ("fault_start", "fault_end")]
        assert len(faults) == 4
        for record in faults:
            validate_trace_record(record)
        starts = [r for r in faults if r["event"] == "fault_start"]
        assert {r["fault"] for r in starts} == {"capacity_dip", "link_flap"}
        flap = next(r for r in starts if r["fault"] == "link_flap")
        assert flap["drop_queued"] is True
        assert flap["flushed_bytes"] >= 0.0


class TestFlapHelper:
    def test_periodic_windows_cover_duration(self):
        faults = flap_fault_specs("wan", period=4.0, duty=0.25, until=12.0)
        assert len(faults) == 3
        assert all(spec.kind == "link_flap" for spec in faults)
        assert faults[0].start == pytest.approx(3.0)
        assert faults[0].duration == pytest.approx(1.0)

    def test_shallow_depth_becomes_capacity_dip(self):
        faults = flap_fault_specs("wan", period=4.0, duty=0.25, until=8.0,
                                  depth=0.4)
        assert all(spec.kind == "capacity_dip" for spec in faults)
        assert faults[0].factor == pytest.approx(0.6)

    def test_bad_duty_rejected(self):
        with pytest.raises(ValueError, match="duty"):
            flap_fault_specs("wan", period=4.0, duty=1.5, until=8.0)

    def test_specs_canonicalise(self):
        faults = flap_fault_specs("wan", period=4.0, duty=0.25, until=8.0)
        frozen = canonicalize(faults)
        assert pickle.loads(pickle.dumps(frozen)) == frozen


class TestNoFaultIdentity:
    def test_empty_schedule_is_bit_identical(self):
        def link_bytes(faults):
            network = _two_hop(faults=faults)
            network.run(4.0)
            link = _link(network, "bottleneck")
            return pickle.dumps((link.total_offered, link.total_served,
                                 link.total_drops, link.queue_bytes,
                                 network.engine_stats()["ticks"]))

        assert link_bytes(()) == link_bytes(None or ())


class TestAuditTier1:
    """Satellite: the conservation audit runs on every CI pass."""

    def test_parking_lot_audit_clean(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "32")
        payload = parking_lot.run_case(scheme="cubic", hops=2,
                                       cross_flows=1, duration=4.0,
                                       dt=0.004, seed=1)
        assert payload["summary"].mean_throughput_mbps > 0

    def test_link_flap_audit_clean(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "32")
        payload = link_flap.run_case(scheme="cubic", period=1.5, depth=1.0,
                                     duty=0.3, drop_queued=1,
                                     phase_duration=2.0, duration=5.0,
                                     dt=0.004, seed=1)
        assert payload["extra"]["fault_windows"] >= 3

    def test_audit_error_names_link_tick_and_counters(self):
        network = _two_hop()
        network.run(1.0)
        link = _link(network, "bottleneck")
        link.total_served += 1e6  # corrupt a counter on purpose
        with pytest.raises(AuditError) as excinfo:
            network.audit_conservation()
        message = str(excinfo.value)
        assert "'bottleneck'" in message
        assert "tick" in message
        assert "offered=" in message and "served=" in message
        assert "dropped=" in message


class TestFaultSpecConversion:
    """``FaultEvent`` is the fault spec: the builder hands the windows to
    :class:`FaultSchedule` as they are, in engine units."""

    def test_delay_is_seconds_end_to_end(self):
        event = FaultEvent("capacity_dip", "wan", 1.0, 0.5, factor=0.25)
        (rebuilt,) = decanonicalize(canonicalize((event,)))
        assert rebuilt == event
        network = _two_hop(faults=(rebuilt,))
        wan = _link(network, "wan")
        nominal = wan.capacity
        network.run(0.9)
        assert wan.capacity == nominal
        network.run(1.2)
        assert wan.capacity == nominal * 0.25
        network.run(1.6)
        assert wan.capacity == nominal
