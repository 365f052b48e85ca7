"""Recorder: throughput/delay/mode series extraction."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import quick_network
from repro.cc import Cubic
from repro.core.nimbus import Nimbus
from repro.simulator import Flow, mbps_to_bytes_per_sec
from repro.simulator.packet import Chunk
from repro.simulator.trace import Recorder
from repro.simulator.units import bytes_per_sec_to_mbps


@pytest.fixture(scope="module")
def recorded_run():
    network, link = quick_network(link_mbps=24, buffer_ms=100, dt=0.004)
    mu = mbps_to_bytes_per_sec(24)
    network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="cubic"))
    network.add_flow(Flow(cc=Nimbus(mu=mu), prop_rtt=0.05, name="nimbus"))
    network.run(20.0)
    return network


def test_times_monotone(recorded_run):
    times = recorded_run.recorder.times()
    assert np.all(np.diff(times) > 0)


def test_throughput_series_sums_to_link(recorded_run):
    rec = recorded_run.recorder
    _, cubic = rec.throughput_series("cubic")
    _, nimbus = rec.throughput_series("nimbus")
    total = (cubic + nimbus)[50:]
    assert float(np.mean(total)) == pytest.approx(24.0, rel=0.15)


def test_throughput_all_flows_default(recorded_run):
    rec = recorded_run.recorder
    _, total = rec.throughput_series()
    assert float(np.mean(total[50:])) == pytest.approx(24.0, rel=0.15)


def test_queue_delay_series_nonnegative(recorded_run):
    _, delays = recorded_run.recorder.queue_delay_series("cubic")
    assert np.all(delays >= 0)


def test_link_queue_delay_series(recorded_run):
    times, delays = recorded_run.recorder.link_queue_delay_series()
    assert len(times) == len(delays)
    assert np.all(delays >= 0)
    assert delays.max() <= 110.0  # bounded by the 100 ms buffer (plus slack)


def test_mode_series_only_for_mode_switching(recorded_run):
    rec = recorded_run.recorder
    _, cubic_modes = rec.mode_series("cubic")
    _, nimbus_modes = rec.mode_series("nimbus")
    assert all(m is None for m in cubic_modes)
    assert any(m in ("delay", "competitive") for m in nimbus_modes)


def test_queue_delay_samples(recorded_run):
    samples = recorded_run.recorder.queue_delay_samples("cubic")
    assert samples.size > 0
    assert np.all(samples >= 0)


def test_rtt_samples_above_propagation(recorded_run):
    samples = recorded_run.recorder.rtt_samples("cubic")
    assert samples.size > 0
    assert samples.min() >= 0.05 - 1e-9


def test_mean_throughput_window(recorded_run):
    rec = recorded_run.recorder
    full = rec.mean_throughput("cubic")
    tail = rec.mean_throughput("cubic", start=10.0)
    assert full >= 0 and tail >= 0


def test_mean_throughput_unknown_flow(recorded_run):
    assert recorded_run.recorder.mean_throughput("missing") == 0.0


# --------------------------------------------------------------------- #
# Per-link series over a multi-hop topology
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def multihop_run():
    from repro.runtime import LinkSpec, make_multihop_network
    network = make_multihop_network(
        (LinkSpec("hop1", 18.0, delay_ms=5.0, buffer_ms=100.0),
         LinkSpec("hop2", 12.0, delay_ms=5.0, buffer_ms=100.0)),
        dt=0.002, seed=0, monitor="hop2")
    network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="main"))
    network.run(15.0)
    return network


def test_link_names_in_attachment_order(multihop_run):
    assert multihop_run.recorder.link_names() == ["hop1", "hop2"]


def test_named_monitor_series_matches_legacy(multihop_run):
    rec = multihop_run.recorder
    times_legacy, legacy = rec.link_queue_delay_series()
    times_named, named = rec.link_queue_delay_series("hop2")
    assert np.array_equal(times_legacy, times_named)
    assert np.allclose(legacy, named)


def test_per_hop_throughput_converges_to_bottleneck(multihop_run):
    rec = multihop_run.recorder
    _, tput = rec.link_throughput_series("hop2")
    assert float(np.mean(tput[len(tput) // 3:])) == pytest.approx(12.0,
                                                                  rel=0.15)


def test_upstream_hop_sees_at_least_bottleneck_rate(multihop_run):
    rec = multihop_run.recorder
    _, up = rec.link_throughput_series("hop1")
    _, down = rec.link_throughput_series("hop2")
    settled = slice(len(up) // 3, None)
    assert float(np.mean(up[settled])) >= float(np.mean(down[settled])) - 1.0


def _occupancy_series(recorder, name):
    """(times, bytes) mean queued bytes per bin at the named link."""
    return recorder._per_tick_mean(
        recorder._occupancy_sums(recorder._link_record(name)))


def test_link_occupancy_and_drops_nonnegative(multihop_run):
    rec = multihop_run.recorder
    for name in rec.link_names():
        _, occ = _occupancy_series(rec, name)
        _, drops = rec.link_drop_series(name)
        assert np.all(occ >= 0)
        assert np.all(drops >= 0)


def test_uncongested_hop_records_no_queueing(multihop_run):
    # hop1 runs 50% faster than the bottleneck: its queue stays shallow
    # compared to hop2's standing queue.
    rec = multihop_run.recorder
    _, q1 = rec.link_queue_delay_series("hop1")
    _, q2 = rec.link_queue_delay_series("hop2")
    assert float(np.mean(q1)) < float(np.mean(q2))


def test_unknown_link_raises_with_known_names(multihop_run):
    with pytest.raises(KeyError, match="hop1"):
        multihop_run.recorder.link_queue_delay_series("nope")


# --------------------------------------------------------------------- #
# One counter record: differential test against the hand-unrolled recorder
# --------------------------------------------------------------------- #
# ``_CounterRecord`` replaced ``_LinkRecord`` and ``_counter_bins``
# replaced ``_link_bins``.  The old logic is kept here, verbatim in its
# arithmetic, as the oracle: both recorders watch the same scripted
# counters and every public link series must come out ``==``, mid-run
# reads of the open bin included.  (The per-class fluid series the two
# once shared went with their last reader.)
class _ScriptedLink:
    def __init__(self, name, capacity):
        self.name, self.capacity = name, capacity
        self.queue_bytes = 0.0
        self.total_served = 0.0
        self.total_drops = 0.0

    @property
    def queue_delay(self):
        return self.queue_bytes / self.capacity


class _ScriptedTopology:
    def __init__(self, links):
        self.links = links


class _ScriptedNetwork:
    """The slice of ``TopologyNetwork`` a recorder's link side reads."""

    flows = ()
    roster = ()

    def __init__(self, links):
        self.topology = _ScriptedTopology(links)
        self.link = links[-1]  # the monitor link


class _TwoRecordOracle:
    """The link half of the recorder as it was before the merge."""

    class _LinkRecord:
        def __init__(self, link):
            self.link = link
            self.occ_acc = 0.0
            self.occ_by_bin, self.served_by_bin, self.dropped_by_bin = \
                [], [], []
            self.prev_served = 0.0
            self.prev_drops = 0.0

    def __init__(self, network, bin_width):
        self.network, self.bin_width = network, bin_width
        self._link_qdelay_sum, self._link_qdelay_cnt = [], []
        self._max_bin = 0
        self._link_records = [self._LinkRecord(link)
                              for link in network.topology.links]
        self._link_index = {r.link.name: r for r in self._link_records}
        self._link_bin = 0
        self._solo_record = (self._link_records[0]
                             if len(self._link_records) == 1 else None)

    def on_tick(self, now):
        b = int(now / self.bin_width)
        if b >= len(self._link_qdelay_sum):
            missing = b + 1 - len(self._link_qdelay_sum)
            self._link_qdelay_sum.extend([0.0] * missing)
            self._link_qdelay_cnt.extend([0] * missing)
            if b != self._link_bin:
                self._flush_link_bins(b)
        self._link_qdelay_sum[b] += self.network.link.queue_delay
        self._link_qdelay_cnt[b] += 1
        if b > self._max_bin:
            self._max_bin = b
        if self._solo_record is None:
            for record in self._link_records:
                record.occ_acc += record.link.queue_bytes

    def _flush_link_bins(self, b):
        gap = b - self._link_bin - 1
        for record in self._link_records:
            link = record.link
            record.occ_by_bin.append(record.occ_acc)
            record.occ_acc = 0.0
            served = link.total_served
            record.served_by_bin.append(served - record.prev_served)
            record.prev_served = served
            drops = link.total_drops
            record.dropped_by_bin.append(drops - record.prev_drops)
            record.prev_drops = drops
            if gap > 0:
                record.occ_by_bin.extend([0.0] * gap)
                record.served_by_bin.extend([0.0] * gap)
                record.dropped_by_bin.extend([0.0] * gap)
        self._link_bin = b

    def _link_bins(self, record):
        n = self._max_bin + 1
        occ, served, dropped = np.zeros(n), np.zeros(n), np.zeros(n)
        flushed = min(len(record.served_by_bin), n)
        served[:flushed] = record.served_by_bin[:flushed]
        dropped[:flushed] = record.dropped_by_bin[:flushed]
        current = self._link_bin
        if current < n:
            link = record.link
            served[current] += link.total_served - record.prev_served
            dropped[current] += link.total_drops - record.prev_drops
        if record is self._solo_record:
            sums = self._link_qdelay_sum
            m = min(len(sums), n)
            if m:
                occ[:m] = (np.asarray(sums[:m], dtype=float)
                           * record.link.capacity)
        else:
            occ[:flushed] = record.occ_by_bin[:flushed]
            if current < n:
                occ[current] += record.occ_acc
        return occ, served, dropped

    def times(self):
        return (np.arange(self._max_bin + 1) + 0.5) * self.bin_width

    def _per_tick_mean(self, sums):
        series = np.zeros(len(sums))
        m = min(len(sums), len(self._link_qdelay_cnt))
        if m:
            cnt = np.asarray(self._link_qdelay_cnt[:m], dtype=float)
            series[:m] = np.divide(sums[:m], cnt, out=np.zeros(m),
                                   where=cnt > 0)
        return self.times(), series

    def _per_bin_rate(self, by_bin):
        return self.times(), bytes_per_sec_to_mbps(by_bin / self.bin_width)

    def series(self):
        """Every public link series, keyed like ``_all_series``."""
        out = {}
        for name, record in self._link_index.items():
            occ, served, dropped = self._link_bins(record)
            times, occupancy = self._per_tick_mean(occ)
            out["link_occupancy", name] = (times, occupancy)
            out["link_queue_delay", name] = (
                times, occupancy / record.link.capacity * 1e3)
            out["link_throughput", name] = self._per_bin_rate(served)
            out["link_drop", name] = self._per_bin_rate(dropped)
        return out


def _all_series(recorder):
    out = {}
    for name in recorder.link_names():
        out["link_occupancy", name] = _occupancy_series(recorder, name)
        out["link_queue_delay", name] = \
            recorder.link_queue_delay_series(name)
        out["link_throughput", name] = recorder.link_throughput_series(name)
        out["link_drop", name] = recorder.link_drop_series(name)
    return out


_bytes = st.floats(min_value=0.0, max_value=3e5, allow_nan=False)


@st.composite
def _counter_scripts(draw):
    """(bin_width, dt, link count, per-tick steps) — bins both wider and
    narrower than the tick, so flushes leave gaps of empty bins."""
    dt = draw(st.sampled_from([0.002, 0.004, 0.01]))
    bin_width = draw(st.sampled_from([0.1, 0.02, 0.004, 0.003]))
    links = draw(st.integers(min_value=1, max_value=3))
    steps = draw(st.lists(st.tuples(
        st.lists(st.tuples(_bytes, _bytes, _bytes),   # served, drops, queue
                 min_size=links, max_size=links),
        st.sampled_from(["", "", "", "read"])),
        min_size=1, max_size=60))
    return bin_width, dt, links, steps


@given(_counter_scripts())
def test_one_counter_record_equals_the_two_record_recorder(script):
    bin_width, dt, link_count, steps = script
    links = [_ScriptedLink(f"hop{i}", 1e6 * (i + 1))
             for i in range(link_count)]
    network = _ScriptedNetwork(links)
    recorder = Recorder(network, bin_width=bin_width)
    oracle = _TwoRecordOracle(network, bin_width)
    assert (recorder._solo_record is None) == (oracle._solo_record is None)

    def compare():
        ours, theirs = _all_series(recorder), oracle.series()
        assert ours.keys() == theirs.keys()
        for key in ours:
            for mine, reference in zip(ours[key], theirs[key]):
                assert np.array_equal(mine, reference), key

    for tick, (per_link, action) in enumerate(steps):
        for link, (served, drops, queued) in zip(links, per_link):
            link.total_served += served
            link.total_drops += drops
            link.queue_bytes = queued
        recorder.on_tick(tick * dt)
        oracle.on_tick(tick * dt)
        if action == "read":
            compare()  # the open bin is read live, nothing is mutated
    compare()


# --------------------------------------------------------------------- #
# Flow records start where the flow does: differential test against the
# zero-padded record
# --------------------------------------------------------------------- #
# ``_FlowRecord.bytes_by_bin`` / ``qdelay_sum`` used to be padded with
# zeros back to bin 0; they now start at the bin of the flow's first
# delivery.  The padded record is kept here as the oracle: both watch the
# same scripted deliveries and every per-flow series must come out ``==``.
class _ScriptedFlow:
    active = True

    def __init__(self, flow_id, name, rtt):
        self.flow_id, self.name = flow_id, name
        self.cc = SimpleNamespace(mode=None)
        self.measurement = SimpleNamespace(rtt=rtt)


class _PaddedFlowOracle:
    """The per-flow delivery half of the recorder as it was before."""

    def __init__(self, bin_width):
        self.bin_width = bin_width
        self._bytes, self._qdelay, self._names = {}, {}, {}
        self._max_bin = 0

    def _touch(self, flow_id):
        self._bytes.setdefault(flow_id, [])
        self._qdelay.setdefault(flow_id, [])

    def on_delivery(self, flow, size, queue_delay, now):
        b = int(now / self.bin_width)
        fid = flow.flow_id
        self._touch(fid)
        self._names[fid] = flow.name
        for values in (self._bytes[fid], self._qdelay[fid]):
            values.extend([0.0] * (b + 1 - len(values)))
        self._bytes[fid][b] += size
        self._qdelay[fid][b] += queue_delay * size
        self._max_bin = max(self._max_bin, b)

    def on_tick(self, flows, now):
        self._max_bin = max(self._max_bin, int(now / self.bin_width))
        for flow in flows:
            if flow.measurement.rtt > 0:
                self._touch(flow.flow_id)  # an RTT sample makes the record

    def _select(self, name, flow_id):
        if flow_id is not None:
            return [flow_id]
        if name is None:
            return list(self._bytes)
        return [fid for fid, n in self._names.items() if n == name]

    def times(self):
        return (np.arange(self._max_bin + 1) + 0.5) * self.bin_width

    def throughput_series(self, name=None, flow_id=None):
        series = np.zeros(self._max_bin + 1)
        for fid in self._select(name, flow_id):
            values = self._bytes.get(fid, [])
            series[:len(values)] += values
        return self.times(), bytes_per_sec_to_mbps(series / self.bin_width)

    def queue_delay_series(self, name=None, flow_id=None):
        dsum = np.zeros(self._max_bin + 1)
        bsum = np.zeros(self._max_bin + 1)
        for fid in self._select(name, flow_id):
            dsum[:len(self._qdelay.get(fid, []))] += self._qdelay.get(fid, [])
            bsum[:len(self._bytes.get(fid, []))] += self._bytes.get(fid, [])
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = np.where(bsum > 0, dsum / np.maximum(bsum, 1e-12), 0.0)
        return self.times(), mean * 1e3

    def mean_throughput(self, name=None, flow_id=None, start=0.0, end=None):
        times, series = self.throughput_series(name, flow_id)
        end = end if end is not None else times[-1] + self.bin_width / 2
        mask = (times >= start) & (times <= end)
        return float(np.mean(series[mask])) if mask.any() else 0.0


@st.composite
def _delivery_scripts(draw):
    """(bin_width, dt, flow names, per-tick deliveries); flows first deliver
    anywhere in the run, so their records start at different bins."""
    dt = draw(st.sampled_from([0.002, 0.004, 0.01]))
    bin_width = draw(st.sampled_from([0.1, 0.02, 0.004]))
    names = draw(st.lists(st.sampled_from(["main", "cross"]),
                          min_size=1, max_size=5))
    delivery = st.tuples(st.integers(0, len(names) - 1),
                         st.floats(min_value=1.0, max_value=3e4),   # bytes
                         st.floats(min_value=0.0, max_value=0.2))   # qdelay
    steps = draw(st.lists(st.lists(delivery, max_size=3),
                          min_size=1, max_size=80))
    return bin_width, dt, names, steps


@given(_delivery_scripts())
def test_offset_flow_records_equal_the_zero_padded_records(script):
    bin_width, dt, names, steps = script
    flows = [_ScriptedFlow(i, name, rtt=0.05 * (i % 2))
             for i, name in enumerate(names)]
    # Two more: one with RTT samples but never a delivery, and one whose
    # first delivery lands in the last bin of the run.
    silent = _ScriptedFlow(len(flows), "cross", rtt=0.04)
    last = _ScriptedFlow(len(flows) + 1, "main", rtt=0.0)
    flows += [silent, last]
    network = _ScriptedNetwork([_ScriptedLink("hop0", 1e6)])
    network.flows = flows
    network.roster = list(range(len(flows)))
    recorder = Recorder(network, bin_width=bin_width)
    oracle = _PaddedFlowOracle(bin_width)

    def deliver(flow, size, queue_delay, now):
        chunk = Chunk(flow_id=flow.flow_id, size=size, seq=0.0, sent_time=now)
        chunk.queue_delay = queue_delay
        recorder.on_delivery(flow, chunk, now)
        oracle.on_delivery(flow, size, queue_delay, now)

    def compare():
        selections = [{"name": name} for name in (None, "main", "cross",
                                                  "missing")]
        selections += [{"flow_id": flow.flow_id} for flow in flows]
        selections.append({"flow_id": len(flows) + 7})  # never seen
        end = recorder.times()[-1]
        for selection in selections:
            for query in ("throughput_series", "queue_delay_series"):
                ours = getattr(recorder, query)(**selection)
                theirs = getattr(oracle, query)(**selection)
                for mine, reference in zip(ours, theirs):
                    assert np.array_equal(mine, reference), (query, selection)
            for window in ({}, {"start": end / 2}, {"end": end / 3},
                           {"start": end * 2}):
                assert recorder.mean_throughput(**selection, **window) == \
                    oracle.mean_throughput(**selection, **window)

    now = 0.0
    for tick, deliveries in enumerate(steps):
        now = tick * dt
        for index, size, queue_delay in deliveries:
            deliver(flows[index], size, queue_delay, now)
        recorder.on_tick(now)
        oracle.on_tick(flows, now)
        if tick == len(steps) // 2:
            compare()  # mid-run: records still growing
    deliver(last, 1500.0, 0.01, now)
    assert recorder._flows[last.flow_id].first_bin == recorder._max_bin
    assert recorder._flows[silent.flow_id].bytes_by_bin == []
    compare()
    # The point of the offset: no record holds a bin before its first one.
    for fid, record in recorder._flows.items():
        assert record.first_bin + len(record.bytes_by_bin) <= \
            recorder._max_bin + 1
        assert len(record.bytes_by_bin) == len(record.qdelay_sum) <= \
            len(oracle._bytes[fid])


def test_a_delivery_keeps_under_16_bytes():
    """20,000 deliveries of one flow inside two bins are retained, each
    with its own queueing delay.  Kept in a list of boxed floats, a sample
    cost a list slot and a float, 32.7 bytes; in a float column it costs
    its 8-byte double (8.4 with the column's growth slack)."""
    n = 20_000
    network, _ = quick_network(link_mbps=24, buffer_ms=100, dt=0.004)
    flow = network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="cubic"))
    recorder = network.recorder
    chunk = Chunk(flow.flow_id, 1500.0, 0, 0.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            chunk.queue_delay = i * 1e-6
            recorder.on_delivery(flow, chunk, 0.05 + i * 1e-5)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept / n <= 16
    assert len(recorder.queue_delay_samples("cubic")) == n
