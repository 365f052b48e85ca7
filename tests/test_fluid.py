"""Fluid-aggregate cross traffic: unit laws, conservation, and A/B fidelity.

The equivalence tests compare a tracked flow competing against N real
Cubic flows (ground truth) with the same flow competing against a fluid
population standing for those N flows.  The documented contract (README,
"Scaling cross-traffic") is monitored-flow throughput within 25 %
relative or 3 Mbit/s absolute, whichever is looser — an aggregate of
scalars cannot reproduce packet-level interleaving exactly, and the
tolerance is what the model actually achieves across population sizes.
"""

from __future__ import annotations

import json

import pytest

from _list_trace_sink import ListTraceSink
from repro.analysis.telemetry import render_trace_summary, trace_summary
from repro.cc import Cubic
from repro.core.nimbus import Nimbus
from repro.runtime import FluidClassSpec, make_network
from repro.runtime.spec import ScenarioSpec
from repro.simulator import Flow, FluidClass, mbps_to_bytes_per_sec
from repro.simulator.fluid import FluidLinkState
from repro.simulator.telemetry import validate_trace_record

MU_96 = mbps_to_bytes_per_sec(96.0)


def test_hand_mirrored_constants_agree():
    """``simulator/fluid.py`` must not import the cc layer, so it spells
    Cubic's constants again; nothing else keeps the copies equal.  (The
    flow-size mixture has one description, ``simulator.wan_mixture``.)"""
    from repro.simulator import fluid

    assert (fluid._CUBIC_C, fluid._CUBIC_BETA) == (Cubic.C, Cubic.BETA)
    assert fluid._INITIAL_WINDOW_BYTES == Cubic.init_cwnd


def test_both_tiers_size_arrivals_from_the_one_mixture():
    """One nominal load is one flow-arrival rate, per-flow or aggregate."""
    from repro.traffic import HeavyTailedFlowSizes

    cls = FluidClass("wan", MU_96, kind="elastic", load=0.5)
    assert cls._arrival_rate == \
        HeavyTailedFlowSizes().arrival_rate_for_load(MU_96, 0.5)


def _population_network(flows, link_mbps=96.0, seed=5, audit=None,
                        monkeypatch=None):
    """Main Cubic flow vs a fluid population of ``flows`` Cubic-alikes."""
    if monkeypatch is not None and audit is not None:
        monkeypatch.setenv("REPRO_AUDIT", str(audit))
    network = make_network(link_mbps=link_mbps, buffer_ms=100, dt=0.002)
    link = network.link
    network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="main"))
    cls = FluidClass("pop", mbps_to_bytes_per_sec(link_mbps),
                     kind="elastic", flows=flows, rtt=0.05, seed=seed)
    network.attach_fluid_class(cls)
    return network, link, cls


def _truth_network(flows, link_mbps=96.0):
    """Main Cubic flow vs ``flows`` real per-flow Cubic competitors."""
    network = make_network(link_mbps=link_mbps, buffer_ms=100, dt=0.002)
    link = network.link
    network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="main"))
    for index in range(flows):
        network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name=f"x{index}"))
    return network, link


def _class_residual(cls):
    return abs(cls.total_offered
               - (cls.total_served + cls.backlog + cls.total_dropped))


class TestFluidClassUnit:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FluidClass("c", MU_96, kind="plasma")
        with pytest.raises(ValueError, match="link_rate"):
            FluidClass("c", 0.0)
        with pytest.raises(ValueError, match="rtt"):
            FluidClass("c", MU_96, rtt=0.0)
        with pytest.raises(ValueError, match="flows"):
            FluidClass("c", MU_96, flows=-1)
        with pytest.raises(ValueError, match="target rate"):
            FluidClass("c", MU_96, load=0.0)
        with pytest.raises(ValueError, match="arrivals_per_sec"):
            FluidClass("c", MU_96, arrivals_per_sec=-5.0)

    def test_repr_smoke(self):
        assert "elastic" in repr(FluidClass("bg", MU_96, flows=4))

    def test_inelastic_envelope_tracks_target_rate(self):
        cls = FluidClass("cbr", MU_96, kind="inelastic", load=0.25, seed=3)
        dt, total = 0.002, 0.0
        for tick in range(5000):
            total += cls.offer(tick * dt, dt, 0.0)
        rate = total / (5000 * dt)
        assert rate == pytest.approx(0.25 * MU_96, rel=0.05)

    def test_inelastic_ignores_loss(self):
        cls = FluidClass("cbr", MU_96, kind="inelastic", load=0.25, seed=3)
        before = cls.offer(0.0, 0.5, 0.0) / 0.5
        cls.on_dropped(1e6, 0.0)
        after = cls.offer(10.0, 0.5, 0.0) / 0.5
        assert after == pytest.approx(before, rel=0.2)

    def test_deterministic_given_seed(self):
        runs = []
        for _ in range(2):
            network, _, cls = _population_network(8, seed=7)
            network.run(5.0)
            runs.append((cls.total_offered, cls.total_served,
                         cls.total_dropped, cls.window,
                         network.recorder.mean_throughput("main", start=1.0)))
        assert runs[0] == runs[1]

    def test_seed_changes_arrival_stream(self):
        totals = []
        for seed in (1, 2):
            cls = FluidClass("wan", MU_96, load=0.5, seed=seed)
            total = sum(cls.offer(t * 0.002, 0.002, 0.0)
                        for t in range(2000))
            totals.append(total)
        assert totals[0] != totals[1]

    def test_overflow_transfer_bounds(self):
        cls = FluidClass("pop", MU_96, flows=4, seed=1)
        lost = 10 * cls.packet_bytes
        assert cls.sample_overflow_transfer(lost, 0.0) == 0.0
        assert cls.sample_overflow_transfer(0.0, 0.5) == 0.0
        # share=1: every whole lost packet belongs to the packet side.
        assert cls.sample_overflow_transfer(lost, 1.0) \
            == pytest.approx(lost)
        for _ in range(50):
            transfer = cls.sample_overflow_transfer(lost, 0.3)
            assert 0.0 <= transfer <= lost

    def test_elastic_backs_off_on_loss(self):
        cls = FluidClass("pop", MU_96, flows=4, rtt=0.05, seed=1)
        for tick in range(500):  # grow out of slow start's early window
            now = tick * 0.002
            send = cls.offer(now, 0.002, 0.0)
            cls.commit(send, send, now)
        before = cls.window
        cls.on_dropped(8 * cls.packet_bytes, 1.0)
        # Loss feedback arrives one RTT later; then one MD per RTT.
        for tick in range(100):
            now = 1.0 + tick * 0.002
            send = cls.offer(now, 0.002, 0.0)
            cls.commit(send, send, now)
        assert cls.window < before


class TestConservation:
    def test_population_audit_and_class_identity(self, monkeypatch):
        network, link, cls = _population_network(
            16, audit=1, monkeypatch=monkeypatch)
        network.run(8.0)
        network.audit_conservation()  # explicit end-of-run re-check
        assert cls.total_dropped > 0.0  # the buffer really overflowed
        assert _class_residual(cls) < 1.0

    def test_inelastic_overload_audit(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "1")
        network = make_network(link_mbps=24, buffer_ms=50, dt=0.002)
        cls = FluidClass("cbr", mbps_to_bytes_per_sec(24),
                         kind="inelastic", load=1.4, seed=2)
        network.attach_fluid_class(cls)
        network.run(5.0)
        network.audit_conservation()
        assert cls.total_dropped > 0.0
        assert _class_residual(cls) < 1.0

    def test_arrival_mode_audit(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "1")
        network = make_network(link_mbps=96, buffer_ms=100, dt=0.002)
        network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="main"))
        cls = FluidClass("wan", MU_96, kind="elastic", load=0.5,
                         arrivals_per_sec=2000.0, seed=4)
        network.attach_fluid_class(cls)
        network.run(6.0)
        network.audit_conservation()
        assert cls.flows_created > 1000
        assert _class_residual(cls) < 1.0

    def test_flush_link_queue_with_fluid(self, monkeypatch):
        network, link, cls = _population_network(
            16, audit=1, monkeypatch=monkeypatch)
        network.run(4.0)
        assert cls.backlog > 0.0  # a standing queue exists at 16 flows
        dropped_before = cls.total_dropped
        flushed = network.flush_link_queue(link.name)
        assert flushed > 0.0
        assert cls.backlog == 0.0
        assert cls.total_dropped > dropped_before
        network.audit_conservation()
        network.run(1.0)  # keep running after the flush under the audit
        assert _class_residual(cls) < 1.0

    def test_multiple_classes_share_one_link(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "1")
        network = make_network(link_mbps=96, buffer_ms=100, dt=0.002)
        elastic = FluidClass("pop", MU_96, flows=8, rtt=0.05, seed=1)
        cbr = FluidClass("cbr", MU_96, kind="inelastic", load=0.3, seed=2)
        network.attach_fluid_class(elastic)
        network.attach_fluid_class(cbr)
        network.run(6.0)
        network.audit_conservation()
        for cls in (elastic, cbr):
            assert cls.total_served > 0.0
            assert _class_residual(cls) < 1.0
        # The CBR envelope is unresponsive; it must get close to its 30 %.
        assert cbr.total_served \
            >= 0.8 * cbr.total_offered

    def test_duplicate_class_name_rejected(self):
        network, _, _ = _population_network(4)
        with pytest.raises(ValueError, match="duplicate"):
            network.attach_fluid_class(FluidClass("pop", MU_96, flows=2))

    def test_engine_stats_counts_classes(self):
        network, _, _ = _population_network(4)
        assert network.engine_stats()["fluid_classes"] == 1


class TestEquivalence:
    """A/B: fluid population vs the per-flow ground truth it stands for."""

    DURATION = 30.0
    WARMUP = 5.0

    def _throughputs(self, flows):
        truth_net, _ = _truth_network(flows)
        truth_net.run(self.DURATION)
        hybrid_net, _, _ = _population_network(flows)
        hybrid_net.run(self.DURATION)
        truth = truth_net.recorder.mean_throughput("main", start=self.WARMUP)
        hybrid = hybrid_net.recorder.mean_throughput("main",
                                                     start=self.WARMUP)
        return truth, hybrid, truth_net, hybrid_net

    @pytest.mark.parametrize("flows", [16, 64])
    def test_main_flow_throughput_agrees(self, flows):
        truth, hybrid, _, _ = self._throughputs(flows)
        # The documented contract: 25 % relative or 3 Mbit/s absolute.
        tolerance = max(0.25 * truth, 3.0)
        assert abs(hybrid - truth) <= tolerance, (
            f"n={flows}: truth {truth:.2f} Mbit/s vs "
            f"hybrid {hybrid:.2f} Mbit/s")

    def test_fluid_takes_the_crowd_share(self):
        # At 16:1 the crowd should hold the lion's share in both worlds.
        truth, hybrid, _, hybrid_net = self._throughputs(16)
        cls = hybrid_net.fluid_classes()[0]
        elapsed = self.DURATION - self.WARMUP
        # Rough aggregate rate over the whole run (includes warmup ramp).
        crowd_mbps = cls.total_served * 8.0 / 1e6 / self.DURATION
        assert crowd_mbps > 5 * hybrid
        assert truth < 96.0 / 4  # sanity: the crowd really squeezed main
        assert elapsed > 0

    def test_nimbus_classifies_fluid_crowd_as_elastic(self):
        results = {}
        for label in ("truth", "hybrid"):
            network = make_network(link_mbps=96, buffer_ms=100, dt=0.002)
            network.add_flow(Flow(cc=Nimbus(mu=MU_96), prop_rtt=0.05,
                                  name="main"))
            if label == "truth":
                for index in range(16):
                    network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05,
                                          name=f"x{index}"))
            else:
                network.attach_fluid_class(FluidClass(
                    "pop", MU_96, kind="elastic", flows=16, rtt=0.05,
                    seed=5))
            network.run(self.DURATION)
            times, modes = network.recorder.mode_series("main")
            counted = [(t, m) for t, m in zip(times, modes)
                       if m is not None and t >= self.WARMUP]
            assert counted, f"{label}: no mode samples"
            competitive = sum(m == "competitive" for _, m in counted)
            results[label] = competitive / len(counted)
        # Elastic cross traffic must read as competitive in both worlds.
        assert results["truth"] > 0.5
        assert results["hybrid"] > 0.5


class TestCost:
    """The cost contract: a class standing for 40x more flows does the
    same work per tick, counted in calls so host speed cannot move it."""

    #: What the engine calls on a fluid class or a link's fluid state each
    #: tick, plus the flow-size draw ``offer`` makes for the tick's arrivals.
    PER_TICK = {FluidClass: ("offer", "_take_sizes_sum", "commit",
                             "sample_overflow_transfer"),
                FluidLinkState: ("take_service", "shed", "drain_leftover")}

    def _ticks_per_call(self, arrivals_per_sec):
        """Figure 9's fluid regime for 4 s: Nimbus against one elastic
        class at load 0.5; the tick of every counted call, by name."""
        network = make_network(96.0, buffer_ms=100.0, dt=0.002, seed=1)
        network.add_flow(Flow(cc=Nimbus(mu=MU_96), prop_rtt=0.05,
                              name="nimbus"))
        cls = FluidClass("wan", MU_96, kind="elastic", load=0.5, rtt=0.05,
                         arrivals_per_sec=arrivals_per_sec, seed=1)
        network.attach_fluid_class(cls)
        calls = {}
        targets = dict(self.PER_TICK)
        targets[FluidClass] += ("_sample_sizes",)
        with pytest.MonkeyPatch.context() as patch:
            for owner, names in targets.items():
                for name in names:
                    def counted(*args, _method=getattr(owner, name),
                                _ticks=calls.setdefault(name, []), **kwargs):
                        _ticks.append(network._tick)
                        return _method(*args, **kwargs)
                    patch.setattr(owner, name, counted)
            network.run(4.0)
        return network, cls, calls

    def test_per_tick_work_does_not_grow_with_the_crowd(self):
        created = {}
        for crowd in (2535.0, 100000.0):
            network, cls, calls = self._ticks_per_call(crowd / 15.0)
            assert len(calls["offer"]) == network.engine_stats()["ticks"]
            for names in self.PER_TICK.values():
                for name in names:
                    ticks = calls[name]
                    assert len(ticks) == len(set(ticks)), (crowd, name)
            # Sizes come in blocks of 4096: a refill per block, not a
            # draw per arriving flow.
            assert len(calls["_sample_sizes"]) <= \
                1 + cls.flows_created / 4096
            created[crowd] = cls.flows_created
        assert created[100000.0] > 30 * created[2535.0]


class TestSpecWiring:
    def test_fluid_spec_canonicalizes_into_scenario_hash(self):
        def base(**kwargs):
            return ScenarioSpec.make(
                _spec_probe_target, label="probe",
                fluid=(FluidClassSpec("wan", load=kwargs.get("load", 0.5)),))
        assert base().spec_hash() == base().spec_hash()
        assert base().spec_hash() != base(load=0.6).spec_hash()

    def test_make_network_attaches_fluid(self):
        network = make_network(
            24.0, fluid=(FluidClassSpec("bg", kind="inelastic",
                                        rate_mbps=6.0, seed=2),))
        classes = network.fluid_classes()
        assert [cls.name for cls in classes] == ["bg"]
        assert classes[0].target_rate \
            == pytest.approx(mbps_to_bytes_per_sec(6.0))

    def test_make_network_without_fluid_attaches_nothing(self):
        assert make_network(24.0).fluid_classes() == []

    def test_attach_fluid_classes_population(self):
        network = make_network(96.0, fluid=(FluidClassSpec(
            "pop", flows=8, rtt_ms=40.0),))
        cls = network.fluid_classes()[0]
        assert cls.flows == 8
        assert cls.rtt == pytest.approx(0.04)


def _spec_probe_target(**kwargs):  # pragma: no cover - hashed, never run
    return kwargs


class TestTelemetry:
    def _traced_run(self, duration=4.0):
        network, _, cls = _population_network(8)
        sink = ListTraceSink()
        network.trace_sink = sink
        network.run(duration)
        return network, cls, sink

    def test_fluid_sample_records_validate(self):
        network, cls, sink = self._traced_run()
        samples = [r for r in sink.records if r["event"] == "fluid_sample"]
        assert samples
        for record in samples:
            validate_trace_record(record)
        last = samples[-1]
        assert last["class"] == "pop"
        assert last["kind"] == "elastic"
        assert last["offered"] == pytest.approx(cls.total_offered, rel=0.05)

    def test_trace_summary_fluid_rollup(self):
        _, cls, sink = self._traced_run()
        summary = trace_summary(sink.records)
        key, rollup = next(iter(summary["fluid"].items()))
        assert key.endswith("/pop")
        assert rollup["kind"] == "elastic"
        assert rollup["offered"] >= rollup["served"]
        rendered = render_trace_summary(sink.records)
        assert "fluid classes:" in rendered
        assert "/pop" in rendered

    def test_trace_summary_without_fluid_has_no_section(self):
        records = [{"time": 0.1, "event": "loss", "flow_id": 0,
                    "flow": "main", "bytes": 1448}]
        summary = trace_summary(records)
        assert summary["fluid"] == {}
        assert "fluid classes:" not in render_trace_summary(records)

    def test_fluid_sample_jsonl_round_trip(self, tmp_path):
        _, _, sink = self._traced_run()
        path = tmp_path / "trace.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for record in sink.records:
                handle.write(json.dumps(record) + "\n")
        from repro.analysis.telemetry import load_trace
        records = load_trace(str(path))
        assert any(r["event"] == "fluid_sample" for r in records)


class TestFig09Fluid:
    def test_run_case_payload(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        from repro.experiments.fig09_wan import run_case
        payload = run_case("cubic", duration=4.0, fluid=1, seed=3)
        assert payload["extra"]["cross_flows"] > 0
        rollup = payload["extra"]["fluid"]
        assert rollup["offered_bytes"] >= rollup["served_bytes"]
        assert payload["data"]["fct_records"] == []
        assert payload["summary"].mean_throughput_mbps > 0.0

    def test_registered_in_experiment_index(self):
        from repro.experiments import EXPERIMENT_INDEX, fig09_fluid
        assert EXPERIMENT_INDEX["fig09_fluid"] == f"{fig09_fluid.__name__}:run"
