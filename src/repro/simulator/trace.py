"""Time-series recording for experiments.

The :class:`Recorder` observes deliveries and queue state as the engine
runs, binning them into fixed-width intervals.  Experiment drivers query it
for the same series the paper plots: per-flow throughput over time,
per-packet queueing delay, the bottleneck queue delay, and the operating
mode of mode-switching algorithms (Nimbus, Copa).

Beyond the monitor link's per-tick queue-delay series, every link of a
multi-hop :class:`~repro.simulator.topology.Topology` gets its own per-bin
time series — mean queueing delay, served throughput, drop rate, and queue
occupancy — sampled from the links' own byte counters, so a parking-lot
experiment can ask *which* hop queued or dropped, not just whether the
monitor hop did (``link_queue_delay_series("hop2")`` and friends).
One :class:`_CounterRecord` per link differences that link's monotone
byte counters at bin boundaries, and :meth:`Recorder._counter_bins` reads
any of them back.  Fluid classes get no series of their own.

Bins are stored as growable lists indexed by bin number rather than
dict-of-bin mappings: simulation time only moves forward, so the bin index
is nondecreasing and appending amortises to O(1) without the per-sample
hashing and boxing of a ``defaultdict``.  A flow's per-bin lists start at
the bin of its first delivery (``_FlowRecord.first_bin``), so a late flow
stores no zeros back to t = 0; series extraction adds each record at that
offset, in the same flow order as the historical dict implementation — the
omitted zeros added nothing, so the produced arrays are bit-identical.

The per-sample series — one queueing delay per delivered chunk, one RTT
per flow per tick and the mode per bin — are flat ``array('d')`` columns
(8 bytes a sample, not a list slot and a boxed float), copied into one
numpy array when read.  Only long-lived flows keep them: a flow whose
source never completes by itself (the main flow, the named Nimbus flows
of the multi-flow experiments, scripted cross traffic), because those are
the only flows any reader asks for.  A sized flow — every WAN cross flow
— keeps its bins alone.  The engine tells the recorder when a flow joins
and leaves its roster, so the per-tick scan visits the recorder's own list
of sampled flows and a cross flow costs nothing per tick; when a flow
finishes, its record is compacted (bins become float columns, empty series
are dropped).
"""

from __future__ import annotations

from array import array
from bisect import insort
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from .source import Source
from .units import bytes_per_sec_to_mbps

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .endpoint import Flow
    from .packet import Chunk
    from .topology import TopologyNetwork


def _grow(values: list, upto: int, fill) -> None:
    """Extend ``values`` with ``fill`` so that index ``upto`` is valid."""
    missing = upto + 1 - len(values)
    if missing > 0:
        values.extend([fill] * missing)


class _FlowRecord:
    """Per-flow accumulation buckets (dense, indexed from ``first_bin``).

    ``qdelay_samples``, ``rtt_samples`` and ``mode_by_bin`` are the
    per-sample series; they are ``None`` for a flow that keeps none (see
    the module docstring).
    """

    __slots__ = ("first_bin", "bytes_by_bin", "qdelay_sum", "qdelay_samples",
                 "rtt_samples", "mode_by_bin")

    def __init__(self, series: bool) -> None:
        #: Bin of the first delivery: what index 0 of the two lists means.
        self.first_bin = 0
        self.bytes_by_bin: List[float] = []
        self.qdelay_sum: List[float] = []
        self.qdelay_samples = array("d") if series else None
        self.rtt_samples = array("d") if series else None
        #: Sparse: only mode-switching algorithms report a mode at all.
        self.mode_by_bin: Optional[Dict[int, str]] = {} if series else None

    def compact(self) -> None:
        """Shrink the record of a flow that has finished.

        The per-bin lists become float columns: a chunk still in flight
        may land in them later, which a column takes as a list does.  Only
        ``on_tick`` writes RTTs and modes, and only while the flow runs,
        so empty ones are dropped.
        """
        self.bytes_by_bin = array("d", self.bytes_by_bin)
        self.qdelay_sum = array("d", self.qdelay_sum)
        if not self.rtt_samples:
            self.rtt_samples = None
        if not self.mode_by_bin:
            self.mode_by_bin = None


#: A link's monotone byte counters, differenced per bin.
_LINK_COUNTERS = ("total_served", "total_drops")


class _CounterRecord:
    """Per-bin differences of one link's monotone byte counters.

    ``source`` is the link that owns the counters (``total_served`` /
    ``total_drops``), ``prev`` their readings when the current bin opened
    and ``by_bin`` the closed bins' deltas, both keyed by counter name.
    The counters are read once per bin boundary (every ``bin_width / dt``
    ticks) and when a series is asked for, so recording every link of a
    topology stays off the engine's hot path.

    The record also carries the queue occupancy, the one per-tick cost:
    ``occ_acc += source.queue_bytes`` (zero for a single-link network,
    where the monitor queue-delay sum already carries the occupancy).
    """

    __slots__ = ("source", "prev", "by_bin", "occ_acc", "occ_by_bin")

    def __init__(self, source) -> None:
        self.source = source
        self.prev: Dict[str, float] = {
            name: getattr(source, name) for name in _LINK_COUNTERS}
        self.by_bin: Dict[str, List[float]] = {
            name: [] for name in _LINK_COUNTERS}
        #: Occupancy sum of the bin currently accumulating.
        self.occ_acc = 0.0
        self.occ_by_bin: List[float] = []

    def close_bin(self, gap: int) -> None:
        """Append every counter's delta since the last close, then ``gap``
        zero bins no tick landed in."""
        source, prev = self.source, self.prev
        for name, closed in self.by_bin.items():
            reading = getattr(source, name)
            closed.append(reading - prev[name])
            prev[name] = reading
            if gap > 0:
                closed.extend([0.0] * gap)


class Recorder:
    """Bins deliveries and queue observations into fixed-width intervals."""

    def __init__(self, network: "TopologyNetwork", bin_width: float = 0.1) -> None:
        self.network = network
        self.bin_width = bin_width
        #: Insertion-ordered by first touch, which ``_select`` relies on to
        #: keep cross-flow accumulation order identical run to run.
        self._flows: Dict[int, _FlowRecord] = {}
        self._names: Dict[int, str] = {}
        #: Ids of the running flows that keep per-sample series, sorted:
        #: what ``on_tick`` visits (flow-id order, like the engine's
        #: roster).  ``_series_ids`` holds every such flow ever started.
        self._sampled: List[int] = []
        self._series_ids: Set[int] = set()
        self._link_qdelay_sum: List[float] = []
        self._ticks_by_bin: List[int] = []
        self._max_bin = 0
        # One record per topology link, in attachment order.  The engine
        # constructs its recorder after wiring the topology, so the link
        # set is fixed here.  Tick counts per bin are shared with the
        # monitor series (every link is sampled on the same ticks).
        self._link_records = [_CounterRecord(link)
                              for link in network.topology.links]
        self._link_index: Dict[str, _CounterRecord] = {
            record.source.name: record for record in self._link_records}
        #: The bin the link records are currently accumulating into.
        self._link_bin = 0
        #: Single-link fast path: when the only link is the monitor link,
        #: its occupancy is already captured by the per-tick queue-delay
        #: sum (``queue_delay == queue_bytes / capacity``), so the bin
        #: occupancy can be derived at read time and ``on_tick`` does no
        #: extra per-link work at all.
        self._solo_record = (self._link_records[0]
                             if len(self._link_records) == 1
                             and self._link_records[0].source
                             is network.link else None)

    # ------------------------------------------------------------------ #
    # Hooks called by the engine
    # ------------------------------------------------------------------ #
    def on_start(self, flow: "Flow") -> None:
        """A flow joined the engine's roster.  Unless its source completes
        by itself, it keeps per-sample series and is sampled every tick."""
        if type(flow.source).finished is Source.finished:
            insort(self._sampled, flow.flow_id)
            self._series_ids.add(flow.flow_id)

    def on_finish(self, flow: "Flow") -> None:
        """A flow left the engine's roster: stop sampling it and compact
        its record."""
        flow_id = flow.flow_id
        if flow_id in self._series_ids:
            self._sampled.remove(flow_id)
        rec = self._flows.get(flow_id)
        if rec is not None:
            rec.compact()

    def on_delivery(self, flow: "Flow", chunk: "Chunk", now: float) -> None:
        # int() truncation == floor for the engine's non-negative clock.
        b = int(now / self.bin_width)
        flow_id = flow.flow_id
        rec = self._flows.get(flow_id)
        if rec is None:
            rec = self._flows[flow_id] = _FlowRecord(
                flow_id in self._series_ids)
        self._names[flow_id] = flow.name
        bytes_by_bin = rec.bytes_by_bin
        if not bytes_by_bin:
            rec.first_bin = b
        i = b - rec.first_bin
        qdelay_sum = rec.qdelay_sum
        if i >= len(bytes_by_bin):
            _grow(bytes_by_bin, i, 0.0)
            _grow(qdelay_sum, i, 0.0)
        size = chunk.size
        queue_delay = chunk.queue_delay
        bytes_by_bin[i] += size
        qdelay_sum[i] += queue_delay * size
        samples = rec.qdelay_samples
        if samples is not None:
            samples.append(queue_delay)
        if b > self._max_bin:
            self._max_bin = b

    def on_tick(self, now: float) -> None:
        b = int(now / self.bin_width)
        qdelay_sum = self._link_qdelay_sum
        if b >= len(qdelay_sum):
            # Ticks advance monotonically and only this hook grows the
            # per-tick bins, so this branch fires exactly on the first
            # tick of every new bin — the one moment the link records
            # need their accumulating bin closed.
            _grow(qdelay_sum, b, 0.0)
            _grow(self._ticks_by_bin, b, 0)
            if b != self._link_bin:
                self._close_bins(b)
        network = self.network
        qdelay_sum[b] += network.link.queue_delay
        self._ticks_by_bin[b] += 1
        if b > self._max_bin:
            self._max_bin = b
        if self._solo_record is None:
            for record in self._link_records:
                record.occ_acc += record.source.queue_bytes
        # In flow-id order, as a scan over every flow ever created would
        # visit them.  A flow stopped from a callback this tick is still
        # listed until the engine drops it from its roster.  A flow's
        # record is created on its first mode or RTT reading.
        flows = network.flows
        records = self._flows
        for flow_id in self._sampled:
            flow = flows[flow_id]
            if not flow.active:
                continue
            mode = flow.cc.mode
            rtt = flow.measurement.rtt
            if mode is None and not rtt > 0:
                continue
            rec = records.get(flow_id)
            if rec is None:
                rec = records[flow_id] = _FlowRecord(True)
            if mode is not None:
                self._names[flow_id] = flow.name
                rec.mode_by_bin[b] = mode
            if rtt > 0:
                rec.rtt_samples.append(rtt)

    # ------------------------------------------------------------------ #
    # Series extraction
    # ------------------------------------------------------------------ #
    def times(self) -> np.ndarray:
        """Centre time of every bin recorded so far."""
        return (np.arange(self._max_bin + 1) + 0.5) * self.bin_width

    def throughput_series(self, name: Optional[str] = None,
                          flow_id: Optional[int] = None
                          ) -> Tuple[np.ndarray, np.ndarray]:
        """(times, Mbit/s) delivered throughput, aggregated over matching flows."""
        ids = self._select(name, flow_id)
        nbins = self._max_bin + 1
        series = np.zeros(nbins)
        for fid in ids:
            rec = self._flows.get(fid)
            if rec is None:
                continue
            span = slice(rec.first_bin, rec.first_bin + len(rec.bytes_by_bin))
            series[span] += rec.bytes_by_bin
        rate = series / self.bin_width
        return self.times(), bytes_per_sec_to_mbps(rate)

    def queue_delay_series(self, name: Optional[str] = None,
                           flow_id: Optional[int] = None
                           ) -> Tuple[np.ndarray, np.ndarray]:
        """(times, ms) byte-weighted mean per-packet queueing delay per bin."""
        ids = self._select(name, flow_id)
        nbins = self._max_bin + 1
        dsum = np.zeros(nbins)
        bsum = np.zeros(nbins)
        for fid in ids:
            rec = self._flows.get(fid)
            if rec is None:
                continue
            span = slice(rec.first_bin, rec.first_bin + len(rec.bytes_by_bin))
            dsum[span] += rec.qdelay_sum
            bsum[span] += rec.bytes_by_bin
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = np.where(bsum > 0, dsum / np.maximum(bsum, 1e-12), 0.0)
        return self.times(), mean * 1e3

    def link_queue_delay_series(self, link_name: Optional[str] = None
                                ) -> Tuple[np.ndarray, np.ndarray]:
        """(times, ms) average queueing delay per bin of one link.

        With no argument this is the monitor link's series, sampled from
        its ``queue_delay`` every tick; naming any topology link answers
        from that link's occupancy record instead.
        """
        if link_name is None:
            nbins = self._max_bin + 1
            series = np.zeros(nbins)
            qdelay_sum = self._link_qdelay_sum
            ticks = self._ticks_by_bin
            for b in range(min(nbins, len(ticks))):
                cnt = ticks[b]
                if cnt:
                    series[b] = qdelay_sum[b] / cnt
            return self.times(), series * 1e3
        record = self._link_record(link_name)
        times, occupancy = self._per_tick_mean(self._occupancy_sums(record))
        return times, occupancy / record.source.capacity * 1e3

    def link_names(self) -> List[str]:
        """Names of the links this recorder samples, in attachment order."""
        return [record.source.name for record in self._link_records]

    def link_throughput_series(self, link_name: str
                               ) -> Tuple[np.ndarray, np.ndarray]:
        """(times, Mbit/s) bytes served per bin by the named link."""
        return self._per_bin_rate(self._link_record(link_name),
                                  "total_served")

    def link_drop_series(self, link_name: str
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """(times, Mbit/s) bytes dropped per bin at the named link."""
        return self._per_bin_rate(self._link_record(link_name),
                                  "total_drops")

    def mode_series(self, name: Optional[str] = None,
                    flow_id: Optional[int] = None
                    ) -> Tuple[np.ndarray, List[Optional[str]]]:
        """(times, mode labels) for mode-switching flows; None where unknown."""
        ids = self._select(name, flow_id)
        nbins = self._max_bin + 1
        modes: List[Optional[str]] = [None] * nbins
        for fid in ids:
            rec = self._flows.get(fid)
            if rec is None or rec.mode_by_bin is None:
                continue
            for b, mode in rec.mode_by_bin.items():
                modes[b] = mode
        return self.times(), modes

    def queue_delay_samples(self, name: Optional[str] = None,
                            flow_id: Optional[int] = None) -> np.ndarray:
        """All per-chunk queueing delay samples (seconds) for matching flows."""
        ids = self._select(name, flow_id)
        samples = array("d")
        for fid in ids:
            rec = self._flows.get(fid)
            if rec is not None and rec.qdelay_samples is not None:
                samples.extend(rec.qdelay_samples)
        return np.array(samples)

    def rtt_samples(self, name: Optional[str] = None,
                    flow_id: Optional[int] = None) -> np.ndarray:
        """All RTT samples (seconds) observed by matching flows."""
        ids = self._select(name, flow_id)
        samples = array("d")
        for fid in ids:
            rec = self._flows.get(fid)
            if rec is not None and rec.rtt_samples is not None:
                samples.extend(rec.rtt_samples)
        return np.array(samples)

    def mean_throughput(self, name: Optional[str] = None,
                        flow_id: Optional[int] = None,
                        start: float = 0.0,
                        end: Optional[float] = None) -> float:
        """Mean delivered throughput in Mbit/s over [start, end]."""
        times, series = self.throughput_series(name, flow_id)
        if len(times) == 0:
            return 0.0
        end = end if end is not None else times[-1] + self.bin_width / 2
        mask = (times >= start) & (times <= end)
        if not mask.any():
            return 0.0
        return float(np.mean(series[mask]))

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _link_record(self, link_name: str) -> _CounterRecord:
        record = self._link_index.get(link_name)
        if record is None:
            raise KeyError(f"no recorded link named {link_name!r}; "
                           f"known: {self.link_names()}")
        return record

    def _close_bins(self, b: int) -> None:
        """Close the accumulating bin of every record and advance to ``b``.

        Appends each link's occupancy sum and every record's counter
        deltas since the previous flush, then pads zeros for any bins no
        tick landed in (only possible when ``bin_width < dt``).
        """
        gap = b - self._link_bin - 1
        for record in self._link_records:
            record.occ_by_bin.append(record.occ_acc)
            record.occ_acc = 0.0
            if gap > 0:
                record.occ_by_bin.extend([0.0] * gap)
            record.close_bin(gap)
        self._link_bin = b

    def _counter_bins(self, record: _CounterRecord,
                      counter: str) -> np.ndarray:
        """Bytes per bin by which one of ``record``'s counters advanced.

        Closed bins come from the record's list; the still-accumulating
        bin is read live (the counter's advance since the last flush), so
        series are current mid-run without mutating the record.
        """
        n = self._max_bin + 1
        values = np.zeros(n)
        closed = record.by_bin[counter]
        flushed = min(len(closed), n)
        values[:flushed] = closed[:flushed]
        if self._link_bin < n:
            values[self._link_bin] += (getattr(record.source, counter)
                                       - record.prev[counter])
        return values

    def _occupancy_sums(self, record: _CounterRecord) -> np.ndarray:
        """Per-bin sums of a link's per-tick queue occupancy (live bin
        included, like :meth:`_counter_bins`)."""
        n = self._max_bin + 1
        occ = np.zeros(n)
        if record is self._solo_record:
            # Fast path: the lone link is the monitor link, whose per-tick
            # queue-delay sum is ``queue_bytes / capacity`` — scale back up
            # instead of accumulating occupancy a second time.
            sums = self._link_qdelay_sum
            m = min(len(sums), n)
            if m:
                occ[:m] = (np.asarray(sums[:m], dtype=float)
                           * record.source.capacity)
        else:
            flushed = min(len(record.occ_by_bin), n)
            occ[:flushed] = record.occ_by_bin[:flushed]
            if self._link_bin < n:
                occ[self._link_bin] += record.occ_acc
        return occ

    def _per_tick_mean(self, sums: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-bin mean of a tick-accumulated sum (tick counts are shared
        across links: every link is sampled on every tick)."""
        series = np.zeros(len(sums))
        counts = self._ticks_by_bin
        m = min(len(sums), len(counts))
        if m:
            cnt = np.asarray(counts[:m], dtype=float)
            series[:m] = np.divide(sums[:m], cnt, out=np.zeros(m),
                                   where=cnt > 0)
        return self.times(), series

    def _per_bin_rate(self, record: _CounterRecord, counter: str
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """One counter's per-bin byte advance as an Mbit/s rate series."""
        return self.times(), bytes_per_sec_to_mbps(
            self._counter_bins(record, counter) / self.bin_width)

    def _select(self, name: Optional[str], flow_id: Optional[int]) -> List[int]:
        if flow_id is not None:
            return [flow_id]
        if name is None:
            return list(self._flows.keys())
        return [fid for fid, n in self._names.items() if n == name]
