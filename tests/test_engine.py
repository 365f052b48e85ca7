"""Network engine: event delivery, RTTs, dynamic flows, callbacks."""

import pytest

from repro import quick_network
from repro.cc import Cubic, NullCC
from repro.runtime import make_network
from repro.simulator import Flow, FiniteSource
from repro.simulator.source import PacedSource
from repro.simulator.units import MSS_BYTES


class TestBasicOperation:
    def test_single_flow_saturates_link(self, small_network):
        network, link = small_network
        network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="cubic"))
        network.run(15.0)
        tput = network.recorder.mean_throughput("cubic", start=5.0)
        assert tput == pytest.approx(24.0, rel=0.1)

    def test_rtt_at_least_propagation(self, small_network):
        network, _ = small_network
        flow = Flow(cc=Cubic(), prop_rtt=0.08, name="cubic")
        network.add_flow(flow)
        network.run(5.0)
        assert flow.measurement.min_rtt >= 0.08 - 1e-9
        # And not wildly larger than propagation plus the buffer (100 ms).
        assert flow.measurement.min_rtt < 0.08 + 0.02

    def test_paced_flow_receives_its_rate(self, small_network, mu_24):
        network, _ = small_network
        rate = 0.25 * mu_24
        network.add_flow(Flow(cc=NullCC(), prop_rtt=0.05,
                              source=PacedSource(rate), name="cbr"))
        network.run(10.0)
        tput = network.recorder.mean_throughput("cbr", start=2.0)
        assert tput == pytest.approx(6.0, rel=0.1)

    def test_delivered_never_exceeds_sent(self, small_network):
        network, _ = small_network
        flow = Flow(cc=Cubic(), prop_rtt=0.05, name="cubic")
        network.add_flow(flow)
        network.run(8.0)
        assert flow.stats.bytes_delivered <= flow.stats.bytes_sent + 1e-6


class TestDynamicFlows:
    def test_delayed_start(self, small_network):
        network, _ = small_network
        network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="late",
                              start_time=5.0))
        network.run(4.0)
        assert network.recorder.mean_throughput("late", start=0.0) == 0.0
        network.run(10.0)
        assert network.recorder.mean_throughput("late", start=6.0) > 1.0

    def test_schedule_call(self, small_network):
        network, _ = small_network
        calls = []
        network.schedule_call(2.0, lambda now: calls.append(now))
        network.run(3.0)
        assert len(calls) == 1
        assert calls[0] == pytest.approx(2.0, abs=0.01)

    def test_finite_flow_completion(self, small_network):
        network, _ = small_network
        flow = Flow(cc=Cubic(), prop_rtt=0.05, source=FiniteSource(200e3),
                    name="finite")
        network.add_flow(flow)
        network.run(20.0)
        assert flow.finished
        assert flow.fct is not None
        assert flow.fct > 0.05  # at least one RTT

    def test_sub_byte_remainder_finishes_and_leaves_the_roster(self):
        """``10 * MSS + 0.5`` bytes: the last half byte is under the sender's
        emission floor, so it can be neither sent nor waited for."""
        network = make_network(48.0, buffer_ms=100.0, dt=0.002)
        flow = network.add_flow(Flow(
            cc=Cubic(), prop_rtt=0.05,
            source=FiniteSource(10 * MSS_BYTES + 0.5)))
        network.run(5.0)
        assert flow.finished and flow.source.finished
        assert flow.stats.bytes_delivered == 10 * MSS_BYTES
        assert flow.inflight == 0.0
        assert flow.fct == pytest.approx(0.056, abs=0.005)
        assert network.active_flow_ids() == []

    def test_stopping_a_waiting_flow_takes_it_off_the_roster(
            self, small_network):
        network, _ = small_network
        flow = network.add_flow(Flow(cc=Cubic(), prop_rtt=0.2, name="slow"))
        network.run(0.1)
        assert flow._waiting  # window out, first ACK 0.2 s away
        network.schedule_call(0.15, flow.stop)
        network.run(0.3)
        assert flow.finished and flow.fct == pytest.approx(0.15, abs=0.005)
        assert network.active_flow_ids() == []

    def test_stop_releases_bandwidth(self, small_network):
        network, _ = small_network
        cross = Flow(cc=Cubic(), prop_rtt=0.05, name="cross")
        main = Flow(cc=Cubic(), prop_rtt=0.05, name="main")
        network.add_flow(cross)
        network.add_flow(main)
        network.schedule_call(10.0, lambda now: cross.stop(now))
        network.run(25.0)
        before = network.recorder.mean_throughput("main", start=5.0, end=10.0)
        after = network.recorder.mean_throughput("main", start=15.0, end=25.0)
        assert after > before


class TestSharing:
    def test_two_identical_flows_split_fairly(self):
        network, _ = quick_network(link_mbps=24, buffer_ms=100, dt=0.004)
        network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="a"))
        network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="b"))
        network.run(40.0)
        a = network.recorder.mean_throughput("a", start=15.0)
        b = network.recorder.mean_throughput("b", start=15.0)
        assert a + b == pytest.approx(24.0, rel=0.15)
        assert min(a, b) / max(a, b) > 0.3

    def test_losses_occur_with_small_buffer(self):
        network, link = quick_network(link_mbps=24, buffer_ms=20, dt=0.004)
        network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="cubic"))
        network.run(15.0)
        assert link.total_drops > 0

    def test_invalid_dt(self):
        from repro.simulator import Topology, TopologyNetwork
        topology = Topology()
        topology.add_link("bottleneck", 1e6)
        with pytest.raises(ValueError):
            TopologyNetwork(topology, dt=0.0)


class TestCalendarQueue:
    """Regression coverage for the engine's event heap."""

    def test_same_tick_callbacks_run_in_push_order(self, small_network):
        network, _ = small_network
        order = []
        when = 0.1
        network.schedule_call(when, lambda now: order.append("a"))
        network.schedule_call(when, lambda now: order.append("b"))
        network.schedule_call(when, lambda now: order.append("c"))
        network.run(0.2)
        assert order == ["a", "b", "c"]

    def test_callback_scheduling_for_current_tick_runs_same_tick(
            self, small_network):
        network, _ = small_network
        seen = []

        def outer(now):
            seen.append(("outer", now))
            network.schedule_call(now, lambda t: seen.append(("inner", t)))

        network.schedule_call(0.1, outer)
        network.run(0.2)
        assert len(seen) == 2
        # The chained callback fired at the same clock reading.
        assert seen[0][1] == seen[1][1]

    def test_finished_flow_leaves_the_active_roster(self, small_network):
        network, _ = small_network
        flow = network.add_flow(Flow(cc=Cubic(), prop_rtt=0.04,
                                     source=FiniteSource(200_000),
                                     name="finite"))
        assert network.active_flow_ids() == [flow.flow_id]
        network.run(30.0)
        assert flow.finished
        assert network.active_flow_ids() == []
        assert list(network.active_flows()) == []

    def test_delayed_start_joins_the_roster(self, small_network):
        network, _ = small_network
        late = network.add_flow(Flow(cc=Cubic(), prop_rtt=0.04, name="late",
                                     start_time=0.5))
        assert network.active_flow_ids() == []
        network.run(1.0)
        assert network.active_flow_ids() == [late.flow_id]

    def test_raising_handler_keeps_undispatched_events(self, small_network):
        network, _ = small_network
        fired = []

        def boom(now):
            raise RuntimeError("boom")

        network.schedule_call(0.1, boom)
        network.schedule_call(0.1, lambda now: fired.append(now))
        with pytest.raises(RuntimeError):
            network.run(0.2)
        # The heap keeps the second callback queued; resuming after
        # catching the error must still deliver it.
        network.run(0.2)
        assert fired

    def test_clock_is_the_repeated_dt_chain(self):
        dt = 0.002
        network, _ = quick_network(link_mbps=24, buffer_ms=100, dt=dt)
        ticks = 10_000
        expected = 0.0
        for _ in range(ticks):
            network.step()
            expected += dt
        assert network.now == expected

    @staticmethod
    def _readings(ticks):
        """The clock readings of ticks ``1..ticks``, read off a twin."""
        twin, _ = quick_network(link_mbps=24, buffer_ms=100, dt=0.002)
        readings = []
        for _ in range(ticks):
            twin.step()
            readings.append(twin.now)
        return readings

    def _fire(self, times, until):
        """Schedule one named callback per ``(name, time)`` in that order
        and return ``(name, clock reading)`` in the order they fired."""
        network, _ = quick_network(link_mbps=24, buffer_ms=100, dt=0.002)
        fired = []
        for name, time in times:
            network.schedule_call(
                time, lambda now, name=name: fired.append((name, now)))
        network.run(until)
        return fired

    def test_event_within_the_slack_of_a_reading_fires_on_that_tick(self):
        readings = self._readings(38)
        fired = self._fire([("slack", readings[36] + 0.5e-12)], readings[37])
        assert fired == [("slack", readings[36])]

    def test_event_past_the_slack_fires_on_the_next_tick(self):
        readings = self._readings(38)
        fired = self._fire([("late", readings[36] + 1e-9)], readings[37])
        assert fired == [("late", readings[37])]

    def test_same_tick_callbacks_run_in_time_order(self):
        readings = self._readings(38)
        # Both fall due on tick 37: the later time is pushed first.
        fired = self._fire([("later", readings[36]),
                            ("earlier", readings[36] - 0.001)], readings[37])
        assert fired == [("earlier", readings[36]), ("later", readings[36])]
