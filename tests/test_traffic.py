"""Traffic generators: flow sizes, WAN workload, scripted phases."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro import quick_network
from repro.experiments import add_main_flow, make_network
from repro.simulator import FlowMeasurement, mbps_to_bytes_per_sec
from repro.simulator import wan_mixture
from repro.simulator.units import MSS_BYTES
from repro.traffic import (
    ELASTIC_THRESHOLD_BYTES,
    HeavyTailedFlowSizes,
    Phase,
    ScriptedCrossTraffic,
    WanTrafficGenerator,
    WanWorkloadConfig,
)
from repro.traffic.flowsize import FlowSizeSample


def _samples(dist, n):
    return [dist.sample() for _ in range(n)]


class TestFlowSizes:
    def test_sizes_positive_and_bounded(self):
        dist = HeavyTailedFlowSizes(seed=1)
        samples = _samples(dist, 2000)
        assert all(100.0 <= s.size_bytes <= dist.max_bytes for s in samples)

    def test_heavy_tail_present(self):
        dist = HeavyTailedFlowSizes(seed=2)
        sizes = sorted(s.size_bytes for s in _samples(dist, 5000))
        top_1pct = sizes[int(0.99 * len(sizes)):]
        # The top 1% of flows must be far larger than the median.
        assert min(top_1pct) > 20 * sizes[len(sizes) // 2]

    def test_most_flows_short_most_bytes_long(self):
        dist = HeavyTailedFlowSizes(seed=3)
        samples = _samples(dist, 5000)
        short = [s for s in samples if not s.elastic]
        elastic_bytes = sum(s.size_bytes for s in samples if s.elastic)
        total_bytes = sum(s.size_bytes for s in samples)
        assert len(short) / len(samples) > 0.5
        assert elastic_bytes / total_bytes > 0.5

    def test_elastic_flag_matches_threshold(self):
        dist = HeavyTailedFlowSizes(seed=4)
        for sample in _samples(dist, 500):
            assert sample.elastic == (sample.size_bytes > ELASTIC_THRESHOLD_BYTES)

    def test_arrival_rate_for_load(self):
        dist = HeavyTailedFlowSizes(seed=5)
        mu = mbps_to_bytes_per_sec(96)
        rate = dist.arrival_rate_for_load(mu, load=0.5)
        assert rate * wan_mixture.mean_bytes() == \
            pytest.approx(0.5 * mu, rel=1e-6)

    def test_reproducibility(self):
        a = [s.size_bytes for s in _samples(HeavyTailedFlowSizes(seed=7), 50)]
        b = [s.size_bytes for s in _samples(HeavyTailedFlowSizes(seed=7), 50)]
        assert a == b


class TestWanGenerator:
    @pytest.fixture(scope="class")
    def wan_run(self):
        network, _ = quick_network(link_mbps=24, buffer_ms=100, dt=0.004)
        config = WanWorkloadConfig(link_rate=mbps_to_bytes_per_sec(24),
                                   load=0.5, prop_rtt=0.05, seed=3)
        generator = WanTrafficGenerator(network, config)
        generator.start()
        network.run(30.0)
        return network, generator

    def test_flows_created(self, wan_run):
        _, generator = wan_run
        assert len(generator.records) > 5

    def test_offered_load_roughly_respected(self, wan_run):
        network, _ = wan_run
        tput = network.recorder.mean_throughput("cross", start=5.0)
        # Offered 12 Mbit/s; delivery should be in the right ballpark.
        assert 4.0 < tput < 20.0

    def test_some_flows_complete(self, wan_run):
        _, generator = wan_run
        completed = generator.completed_records()
        assert len(completed) > 0
        assert all(r.fct > 0 for r in completed)

    def test_elastic_byte_fraction_bounds(self, wan_run):
        _, generator = wan_run
        frac = generator.elastic_byte_fraction(0.0, 30.0)
        assert 0.0 <= frac <= 1.0

    @staticmethod
    def scanned_elastic_byte_fraction(generator, start, end):
        """The per-window scan over every record, as it was before the
        per-record arrays: the oracle for the array arithmetic."""
        elastic = 0.0
        total = 0.0
        for record in generator.records:
            flow = record.flow
            f_start = record.start_time
            f_end = (flow.stats.end_time if flow.stats.end_time is not None
                     else end)
            overlap = max(0.0, min(end, f_end) - max(start, f_start))
            duration = max(f_end - f_start, 1e-9)
            bytes_in_window = flow.stats.bytes_delivered * overlap / duration
            total += bytes_in_window
            if record.elastic:
                elastic += bytes_in_window
        if total <= 0:
            return 0.0
        return elastic / total

    def test_elastic_byte_fraction_matches_the_record_scan(self, wan_run):
        network, generator = wan_run
        # Finished and still-running flows, elastic and not, are all there.
        ended = [r.flow.stats.end_time is not None for r in generator.records]
        assert any(ended) and not all(ended)
        assert len({r.elastic for r in generator.records}) == 2
        ends = np.arange(0.0, 31.0, 0.5)
        for window in (0.5, 5.0, 40.0):
            starts = np.maximum(0.0, ends - window)
            fractions = generator.elastic_byte_fraction(starts, ends)
            assert fractions.shape == ends.shape
            scanned = [self.scanned_elastic_byte_fraction(generator, s, e)
                       for s, e in zip(starts, ends)]
            assert fractions == pytest.approx(scanned, abs=1e-12, rel=0)
            assert len(set(scanned)) > len(scanned) // 2
        # An empty window (and an empty generator) carries no bytes.
        assert generator.elastic_byte_fraction(5.0, 5.0) == 0.0
        idle = WanTrafficGenerator(network, generator.config)
        assert idle.elastic_byte_fraction(0.0, 30.0) == 0.0


class TestWanGeneratorRoster:
    """The generator counts concurrency over a pruned roster of live flows;
    it must decide exactly as a rescan of every record would."""

    MAX_CONCURRENT = 6

    def checked_generator(self, stop_at_arrival=None):
        """A generator whose every arrival is checked against the rescan.

        Returns (network, generator, log); ``log`` holds one dict per
        arrival.  ``stop_at_arrival`` ends one running cross flow through
        ``Flow.stop`` just before that arrival is handled.
        """
        network, _ = quick_network(link_mbps=12, buffer_ms=100, dt=0.004)
        config = WanWorkloadConfig(
            link_rate=mbps_to_bytes_per_sec(12), load=0.95, prop_rtt=0.05,
            seed=5, max_concurrent=self.MAX_CONCURRENT)
        generator = WanTrafficGenerator(network, config)
        original = generator._on_arrival
        log = []

        def checked(now):
            records = generator.records
            if stop_at_arrival == len(log):
                victim = next(r.flow for r in records if r.flow.active)
                victim.stop(now)
            rescan = sum(1 for r in records if r.flow.active)
            before = len(records)
            original(now)
            roster = generator._live
            created = len(records) - before
            assert created == (1 if rescan < self.MAX_CONCURRENT else 0)
            # Exactly the unfinished flows, in creation order: the started
            # ones among them are the rescan's count.
            assert roster == [r.flow for r in records
                              if not r.flow.finished]
            assert sum(1 for flow in roster[:len(roster) - created]
                       if flow.active) == rescan
            waiting = sum(1 for flow in roster if not flow._started)
            assert len(roster) <= self.MAX_CONCURRENT + waiting
            log.append({"rescan": rescan, "created": created})

        # The generator re-schedules ``self._on_arrival``, so the instance
        # attribute routes every arrival through the check.
        generator._on_arrival = checked
        generator.start()
        return network, generator, log

    def test_count_matches_rescan_at_every_arrival(self):
        network, generator, log = self.checked_generator()
        network.run(20.0)
        assert len(log) > 100
        # The run is loaded enough to be refused at the cap...
        assert any(entry["created"] == 0 for entry in log)
        assert max(entry["rescan"] for entry in log) == self.MAX_CONCURRENT
        # ...and long enough that the records grow past ten times the cap
        # (every arrival above checked that the roster did not).
        assert len(generator.records) > 10 * self.MAX_CONCURRENT

    def test_flow_stopped_early_leaves_the_roster(self):
        network, generator, log = self.checked_generator(stop_at_arrival=40)
        network.run(8.0)
        assert len(log) > 41
        stopped = [r.flow for r in generator.records
                   if r.flow.finished and not r.flow.source.finished]
        assert len(stopped) == 1
        assert stopped[0] not in generator._live

    def test_flows_not_yet_started_are_kept_but_not_counted(self):
        network, _ = quick_network(link_mbps=12, dt=0.004)
        config = WanWorkloadConfig(link_rate=mbps_to_bytes_per_sec(12),
                                   seed=5, max_concurrent=2)
        generator = WanTrafficGenerator(network, config)
        # Arrivals stamped ahead of the engine clock: the flows are queued
        # to start later, so none of them counts against the cap yet.
        for _ in range(4):
            generator._on_arrival(1.0)
        assert len(generator.records) == len(generator._live) == 4
        assert not any(r.flow.active for r in generator.records)
        network.run(1.1)
        active = sum(1 for r in generator.records if r.flow.active)
        assert active > 2
        before = len(generator.records)
        generator._on_arrival(network.now)
        assert len(generator.records) == before

    def test_records_and_statistics_do_not_depend_on_the_roster(self):
        network, generator, _ = self.checked_generator()
        added = []
        add_flow = network.add_flow
        network.add_flow = lambda flow: added.append(flow) or add_flow(flow)
        network.run(12.0)
        records = generator.records
        # One record per generated flow, in creation order, finished or not.
        assert [r.flow for r in records] == added
        assert len(generator._live) < len(records) / 5
        completed = generator.completed_records()
        expected = [r for r in records if r.flow.fct is not None]
        assert len(completed) == len(expected) > 50
        assert all(a is b for a, b in zip(completed, expected))
        # Finished flows left the roster but still carry their bytes.
        elastic = sum(r.flow.stats.bytes_delivered for r in records
                      if r.elastic)
        total = sum(r.flow.stats.bytes_delivered for r in records)
        assert generator.elastic_byte_fraction(0.0, 12.0) == \
            pytest.approx(elastic / total)


def _windows(measurement):
    """The four sample stores of a flow's measurement, as lists of the
    tuples their columns retain (from the head on)."""
    stores = [(counter._head, (counter._times, counter._bytes))
              for counter in (measurement.sent, measurement.delivered,
                              measurement.lost)]
    stores.append((measurement._acked_head, (
        measurement._ack_times, measurement._sent_times,
        measurement._acked_bytes)))
    return [list(zip(*(column[head:] for column in columns)))
            for head, columns in stores]


class TestStateFollowsLiveness:
    """A finished flow keeps its totals, not its windows: window memory is
    O(live flows) however many flows the generator has ever made."""

    @staticmethod
    def capped_run():
        network, _ = quick_network(link_mbps=12, buffer_ms=100, dt=0.004)
        generator = WanTrafficGenerator(network, WanWorkloadConfig(
            link_rate=mbps_to_bytes_per_sec(12), load=0.95, prop_rtt=0.05,
            seed=5, max_concurrent=6))
        generator.start()
        network.run(12.0)
        return [record.flow for record in generator.records]

    def test_finished_flows_hold_totals_live_flows_hold_windows(
            self, monkeypatch):
        flows = self.capped_run()
        # The reference: the same run with nothing dropped at finish.
        monkeypatch.setattr(FlowMeasurement, "drop_windows",
                            lambda self: None)
        reference = self.capped_run()
        assert len(flows) == len(reference) > 100
        finished = live = 0
        for flow, kept in zip(flows, reference):
            mine, theirs = flow.measurement, kept.measurement
            assert flow.finished == kept.finished
            if flow.finished:
                finished += 1
                assert _windows(mine) == [[], [], [], []]
                assert sum(map(len, _windows(theirs))) > 0
            else:
                live += 1
                assert _windows(mine) == _windows(theirs)
            # What a finished flow is read for afterwards is all there.
            assert (mine.sent.total, mine.delivered.total, mine.lost.total,
                    mine.rtt, mine.min_rtt, mine.queue_delay,
                    mine.max_delivery_rate) == (
                theirs.sent.total, theirs.delivered.total, theirs.lost.total,
                theirs.rtt, theirs.min_rtt, theirs.queue_delay,
                theirs.max_delivery_rate)
            assert flow.stats == kept.stats and flow.fct == kept.fct
            # ...and a windowed query still answers: from the same window
            # while the flow lives, with zero once it has finished.
            rates = (mine.paired_rates(12.0), mine.loss_rate(12.0, 1.0))
            assert rates == (((0.0, 0.0), 0.0) if flow.finished else (
                theirs.paired_rates(12.0), theirs.loss_rate(12.0, 1.0)))
        assert finished > 100 and live > 0

    def test_retained_memory_per_flow_ever_created(self):
        """8.5 KB per created flow before finished flows gave up their
        windows and records stopped padding back to t = 0; about 3 KB now
        (the margin covers 3.11 / 3.12 object sizes)."""
        gc.collect()
        tracemalloc.start()
        try:
            # The fig09 / e2e ``wan_churn`` scenario, kept alive.
            network = make_network(96.0, buffer_ms=100.0, dt=0.004, seed=1)
            add_main_flow(network, "cubic", 96.0)
            generator = WanTrafficGenerator(network, WanWorkloadConfig(
                link_rate=mbps_to_bytes_per_sec(96.0), load=0.5,
                prop_rtt=0.05, seed=1))
            generator.start()
            network.run(8.0)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(generator.records) > 1000
        assert retained / len(network.flows) < 5 * 1024

    def test_sub_byte_remainder_produces_an_fct_row(self):
        """A size no whole emission carries still completes and is reported,
        instead of holding one of the ``max_concurrent`` slots for ever."""
        network, _ = quick_network(link_mbps=48, buffer_ms=100, dt=0.002)
        generator = WanTrafficGenerator(network, WanWorkloadConfig(
            link_rate=mbps_to_bytes_per_sec(48), load=0.3, seed=2))
        generator.flow_sizes.sample = lambda: FlowSizeSample(
            size_bytes=10 * MSS_BYTES + 0.5, elastic=True)
        generator.start()
        network.run(1.0)
        generator.config.max_concurrent = 0  # no new flows from here on
        network.run(2.0)
        assert len(generator.records) > 20
        assert generator.completed_records() == generator.records
        assert network.roster == []


class TestScripted:
    def test_phase_lookup(self):
        phases = [Phase(duration=10.0, elastic_flows=1),
                  Phase(duration=10.0, inelastic_rate=1e6)]
        network, _ = quick_network(link_mbps=24, dt=0.004)
        script = ScriptedCrossTraffic(network=network, phases=phases)
        assert script.phase_at(5.0).has_elastic
        assert not script.phase_at(15.0).has_elastic
        assert script.phase_at(25.0) is None

    def test_elastic_present_ground_truth(self):
        phases = [Phase(duration=10.0), Phase(duration=10.0, elastic_flows=2)]
        network, _ = quick_network(link_mbps=24, dt=0.004)
        script = ScriptedCrossTraffic(network=network, phases=phases)
        assert not script.elastic_present(5.0)
        assert script.elastic_present(15.0)

    def test_fair_share(self):
        mu = mbps_to_bytes_per_sec(96)
        phases = [Phase(duration=10.0, elastic_flows=1),
                  Phase(duration=10.0, inelastic_rate=0.5 * mu)]
        network, _ = quick_network(link_mbps=96, dt=0.004)
        script = ScriptedCrossTraffic(network=network, phases=phases)
        assert script.fair_share(5.0, mu) == pytest.approx(mu / 2)
        assert script.fair_share(15.0, mu) == pytest.approx(mu / 2)

    def test_flows_start_and_stop(self):
        network, _ = quick_network(link_mbps=24, buffer_ms=100, dt=0.004)
        phases = [Phase(duration=8.0, elastic_flows=1),
                  Phase(duration=8.0, inelastic_rate=mbps_to_bytes_per_sec(6))]
        script = ScriptedCrossTraffic(network=network, phases=phases,
                                      prop_rtt=0.05)
        script.install()
        network.run(16.5)
        first = network.recorder.mean_throughput("cross", start=2.0, end=8.0)
        second = network.recorder.mean_throughput("cross", start=10.0,
                                                  end=16.0)
        assert first == pytest.approx(24.0, rel=0.25)   # backlogged Cubic
        assert second == pytest.approx(6.0, rel=0.3)    # 6 Mbit/s Poisson
