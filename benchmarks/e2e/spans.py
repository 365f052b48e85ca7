"""In-memory spans around the public entry points of every layer.

For the one traced pass of a workload, :func:`installed` replaces the
listed public methods *at class level* with timing wrappers and restores
the original attributes on exit, so nothing under ``src/`` changes and the
timed passes never see a wrapper.  Two granularities share one stack:

* coarse entry points (``BatchExecutor.run``, ``TopologyNetwork.run``,
  ``execute_spec``, cache/journal/manifest calls) are kept as individual
  spans with an id and the id of the span that caused them;
* per-chunk entry points (``Flow.emit``, ``BottleneckLink.service``, CC
  callbacks, ...) are called millions of times, so they are aggregated per
  entry point: calls, total time, self time and one tally (empty results
  or records returned).

A span's *self time* is its duration minus the time its child spans
cover; self times of all spans under a root therefore add up to the
root's duration, which ``harness.span_coverage`` reports.

Layer names are the repository's module names.  Callbacks registered
through the public ``TopologyNetwork.schedule_call`` are attributed to
the module that defined the callback (traffic / faults / routing).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: (layer, "module:Class", methods) wrapped as aggregated hot entry points.
_HOT = (
    ("endpoint", "repro.simulator.endpoint:Flow",
     ("emit", "handle_ack", "handle_loss")),
    ("measurement", "repro.simulator.measurement:FlowMeasurement",
     ("on_send", "on_ack", "on_loss", "paired_rates", "send_rate",
      "delivery_rate")),
    ("core.nimbus", "repro.core.nimbus:Nimbus",
     ("on_ack", "on_loss", "on_control_tick")),
    ("core.estimator", "repro.core.estimator:CrossTrafficEstimator",
     ("maybe_sample", "z_series", "r_series", "times")),
    ("core.detector", "repro.core.elasticity:ElasticityDetector",
     ("evaluate",)),
    ("core.detector", "repro.core.elasticity:PulserDetector", ("evaluate",)),
    ("link", "repro.simulator.link:BottleneckLink",
     ("enqueue", "service", "flush")),
    ("fluid", "repro.simulator.fluid:FluidClass",
     ("offer", "commit", "serve", "on_dropped")),
    ("fluid", "repro.simulator.fluid:FluidLinkState",
     ("take_service", "drain_leftover", "shed")),
    ("recorder", "repro.simulator.trace:Recorder", ("on_tick", "on_delivery")),
)

#: (layer, "module:Class" or "module", attribute) kept as individual spans.
_KEPT = (
    ("runtime.spec", "repro.runtime.spec:ScenarioSpec", "spec_hash"),
    ("runtime.depgraph", "repro.runtime.depgraph:DependencyGraph",
     "digest_for"),
    ("runtime.cache", "repro.runtime.cache:ResultCache", "get"),
    ("runtime.cache", "repro.runtime.cache:ResultCache", "put"),
    ("runtime.journal", "repro.runtime.journal:BatchJournal", "record"),
    ("runtime.manifest", "repro.runtime.manifest:CampaignManifest", "expand"),
    ("runtime.campaign", "repro.runtime.campaign:CampaignRunner", "run"),
    ("driver", "repro.runtime.executor", "execute_spec"),
)

#: What the tally of an entry point counts (default: nothing).
_TALLIES: Dict[str, Callable[[Any], int]] = {
    "Flow.emit": lambda result: result is None,          # nothing to send
    "BottleneckLink.service": lambda result: not result,  # idle hop
    "BottleneckLink.enqueue": len,                        # drop records
    "BottleneckLink.flush": len,                          # drop records
    "CampaignManifest.expand": len,                       # cells
}

_CC_CALLBACKS = ("on_ack", "on_loss", "on_control_tick")

#: ``engine_stats()`` counters summed over runs / maximised over networks.
_ENGINE_SUMS = ("ticks", "events_executed", "calendar_buckets_created")
_ENGINE_PEAKS = ("spill_peak", "roster_peak")
_NETWORK_RUN = ("engine", "TopologyNetwork.run")


def _callback_layer(fn: Callable) -> str:
    """Layer of a ``schedule_call`` callback: the module that defined it."""
    module = getattr(fn, "__module__", None) or ""
    if module.startswith("repro.traffic"):
        return "traffic"
    if module == "repro.simulator.faults":
        return "faults"
    if module == "repro.simulator.routing":
        return "routing"
    return "driver"


class SpanRecorder:
    """Span stack, kept spans and per-entry-point aggregates of one pass."""

    def __init__(self) -> None:
        #: Child-time accumulator of every open span; entry 0 collects
        #: spans opened outside any other span.
        self._stack: List[float] = [0.0]
        #: Ids of the open *kept* spans (0 = no parent).
        self._open_ids: List[int] = [0]
        self._next_id = 0
        #: (layer, entry point) -> [calls, total_s, self_s, tally]
        self.totals: Dict[Tuple[str, str], List[float]] = {}
        #: Kept spans: (id, parent id, layer, name, start, end).
        self.spans: List[Tuple[int, int, str, str, float, float]] = []
        self.engine: Dict[str, float] = dict.fromkeys(
            _ENGINE_SUMS + _ENGINE_PEAKS, 0)
        self.executor: Dict[str, float] = {"spawned": 0, "driver_s": 0.0}
        self.flows_created = 0
        #: Output-check failures seen while tracing (engine event law).
        self.violations: List[str] = []

    # ------------------------------------------------------------------ #
    def _slot(self, layer: str, name: str) -> List[float]:
        return self.totals.setdefault((layer, name), [0, 0.0, 0.0, 0])

    @contextlib.contextmanager
    def span(self, layer: str, name: str) -> Iterator[None]:
        """Record one kept span around the ``with`` body."""
        slot = self._slot(layer, name)
        stack, open_ids = self._stack, self._open_ids
        self._next_id += 1
        span_id, parent = self._next_id, open_ids[-1]
        open_ids.append(span_id)
        stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            elapsed = end - start
            slot[0] += 1
            slot[1] += elapsed
            slot[2] += elapsed - stack.pop()
            stack[-1] += elapsed
            open_ids.pop()
            self.spans.append((span_id, parent, layer, name, start, end))

    def kept(self, fn: Callable, layer: str, name: str) -> Callable:
        """``fn`` wrapped in a kept span (with the entry point's tally)."""
        tally = _TALLIES.get(name)
        slot = self._slot(layer, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(layer, name):
                result = fn(*args, **kwargs)
            if tally is not None:
                slot[3] += tally(result)
            return result
        return wrapper

    def hot(self, fn: Callable, layer: str, name: str) -> Callable:
        """``fn`` wrapped as an aggregated entry point (no span record)."""
        slot = self._slot(layer, name)
        stack = self._stack
        clock = time.perf_counter
        tally = _TALLIES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
                if tally is not None:
                    slot[3] += tally(result)
                return result
            finally:
                elapsed = clock() - start
                slot[0] += 1
                slot[1] += elapsed
                slot[2] += elapsed - stack.pop()
                stack[-1] += elapsed
        return wrapper

    # ------------------------------------------------------------------ #
    # Entry points that need more than a timer
    # ------------------------------------------------------------------ #
    def _network_run(self, original: Callable) -> Callable:
        """``TopologyNetwork.run``: engine span + ``engine_stats()`` deltas."""
        @functools.wraps(original)
        def run(network, until):
            before = network.engine_stats()
            try:
                with self.span(*_NETWORK_RUN):
                    return original(network, until)
            finally:
                after = network.engine_stats()
                for key in _ENGINE_SUMS:
                    self.engine[key] += after[key] - before[key]
                for key in _ENGINE_PEAKS:
                    self.engine[key] = max(self.engine[key], after[key])
                if after["events_scheduled"] != (after["events_executed"]
                                                 + after["events_pending"]):
                    self.violations.append(
                        f"engine event law broken at t={after['now']}: "
                        f"{after['events_scheduled']} scheduled != "
                        f"{after['events_executed']} executed + "
                        f"{after['events_pending']} pending")
        return run

    def _schedule_call(self, original: Callable) -> Callable:
        """``TopologyNetwork.schedule_call``: time the callback by layer."""
        @functools.wraps(original)
        def schedule_call(network, when, fn):
            layer = _callback_layer(fn)
            timed = self.hot(fn, layer, "callback")
            if layer != "traffic":
                return original(network, when, timed)

            def counting(now):
                before = len(network.flows)
                try:
                    return timed(now)
                finally:
                    self.flows_created += len(network.flows) - before
            return original(network, when, counting)
        return schedule_call

    def _executor_run(self, original: Callable) -> Callable:
        """``BatchExecutor.run``: span + fork/driver accounting.

        The hardened executor forks one process per attempt; the serial
        path the engine workloads use spawns nothing.
        """
        @functools.wraps(original)
        def run(executor, specs):
            try:
                with self.span("runtime.executor", "BatchExecutor.run"):
                    return original(executor, specs)
            finally:
                for record in executor.last_metrics:
                    if record["cache"] == "hit" or record["dedup"]:
                        continue
                    self.executor["driver_s"] += record["seconds"] or 0.0
                    if executor.hardened:
                        self.executor["spawned"] += record["attempts"]
        return run

    # ------------------------------------------------------------------ #
    def layer(self, layer: str, field: int) -> float:
        """Sum of one aggregate field (0 calls, 1 total, 2 self, 3 tally)
        over every entry point of ``layer``."""
        return sum(slot[field] for (name, _), slot in self.totals.items()
                   if name == layer)

    def entry(self, layer: str, name: str) -> List[float]:
        return self.totals.get((layer, name), [0, 0.0, 0.0, 0])

    def write(self, path: str) -> None:
        """Write kept spans and aggregates as JSON lines, once, at the end."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, layer, name, start, end in self.spans:
                handle.write(json.dumps({
                    "span": span_id, "parent": parent, "layer": layer,
                    "name": name, "start": start, "end": end}) + "\n")
            for (layer, name), slot in sorted(self.totals.items()):
                handle.write(json.dumps({
                    "aggregate": name, "layer": layer, "calls": slot[0],
                    "total_s": slot[1], "self_s": slot[2],
                    "tally": slot[3]}) + "\n")


def _resolve(path: str) -> Any:
    module_name, _, attr = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, attr) if attr else owner


def _cc_classes() -> List[type]:
    """Every congestion-control class defined under ``repro.cc``."""
    package = importlib.import_module("repro.cc")
    seen: List[type] = []
    for obj in vars(package).values():
        if (isinstance(obj, type) and obj.__module__.startswith("repro.cc.")
                and issubclass(obj, package.CongestionControl)
                and obj not in seen):
            seen.append(obj)
    return seen


@contextlib.contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install every wrapper; restore the original attributes on exit."""
    saved: List[Tuple[Any, str, Any]] = []

    def replace(owner: Any, attr: str, make: Callable[[Callable], Callable]):
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def qualified(owner: Any, attr: str) -> str:
        return f"{owner.__name__}.{attr}" if isinstance(owner, type) else attr

    try:
        for layer, path, methods in _HOT:
            owner = _resolve(path)
            for attr in methods:
                replace(owner, attr, lambda fn, a=attr, o=owner, l=layer:
                        recorder.hot(fn, l, qualified(o, a)))
        for owner in _cc_classes():
            for attr in _CC_CALLBACKS:
                if attr in vars(owner):
                    replace(owner, attr, lambda fn, a=attr, o=owner:
                            recorder.hot(fn, "cc", qualified(o, a)))
        for layer, path, attr in _KEPT:
            owner = _resolve(path)
            replace(owner, attr, lambda fn, a=attr, o=owner, l=layer:
                    recorder.kept(fn, l, qualified(o, a)))
        network = _resolve("repro.simulator.topology:TopologyNetwork")
        replace(network, "run", recorder._network_run)
        replace(network, "schedule_call", recorder._schedule_call)
        replace(_resolve("repro.runtime.executor:BatchExecutor"), "run",
                recorder._executor_run)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------- #
# Per-layer metrics
# ---------------------------------------------------------------------- #
#: Every per-layer metric the benchmark reports: (name, unit, better).
#: ``sim.*`` are simulated statistics and repeat exactly; a change that
#: claims only host speed must leave them identical.
PER_LAYER = (
    ("engine.self_s", "s", "lower"),
    ("engine.ticks", "count", "lower"),
    ("engine.events_executed", "count", "lower"),
    ("engine.calendar_buckets_created", "count", "lower"),
    ("engine.spill_peak", "count", "lower"),
    ("engine.roster_peak", "count", "lower"),
    ("engine.ticks_per_host_s", "1/s", "higher"),
    ("endpoint.self_s", "s", "lower"),
    ("endpoint.calls", "count", "lower"),
    ("endpoint.emit_empty_ratio", "ratio", "lower"),
    ("measurement.self_s", "s", "lower"),
    ("measurement.calls", "count", "lower"),
    ("cc.self_s", "s", "lower"),
    ("cc.calls", "count", "lower"),
    ("core.nimbus.self_s", "s", "lower"),
    ("core.nimbus.calls", "count", "lower"),
    ("core.estimator.self_s", "s", "lower"),
    ("core.estimator.calls", "count", "lower"),
    ("core.detector.self_s", "s", "lower"),
    ("core.detector.evals", "count", "lower"),
    ("core.detector.us_per_eval", "us", "lower"),
    ("link.self_s", "s", "lower"),
    ("link.enqueue_calls", "count", "lower"),
    ("link.service_calls", "count", "lower"),
    ("link.service_empty_ratio", "ratio", "lower"),
    ("link.drop_records", "count", "lower"),
    ("fluid.self_s", "s", "lower"),
    ("fluid.calls", "count", "lower"),
    ("recorder.self_s", "s", "lower"),
    ("recorder.calls", "count", "lower"),
    ("traffic.self_s", "s", "lower"),
    ("traffic.arrivals", "count", "lower"),
    ("traffic.flows_created", "count", "lower"),
    ("faults.self_s", "s", "lower"),
    ("routing.self_s", "s", "lower"),
    ("routing.calls", "count", "lower"),
    ("driver.self_s", "s", "lower"),
    ("runtime.spec.self_s", "s", "lower"),
    ("runtime.spec.hashes", "count", "lower"),
    ("runtime.depgraph.self_s", "s", "lower"),
    ("runtime.depgraph.digests", "count", "lower"),
    ("runtime.cache.get_s", "s", "lower"),
    ("runtime.cache.put_s", "s", "lower"),
    ("runtime.cache.hits", "count", "higher"),
    ("runtime.cache.misses", "count", "lower"),
    ("runtime.cache.bytes_written", "bytes", "lower"),
    ("runtime.journal.self_s", "s", "lower"),
    ("runtime.journal.records", "count", "lower"),
    ("runtime.manifest.expand_s", "s", "lower"),
    ("runtime.manifest.cells", "count", "lower"),
    ("runtime.campaign.self_s", "s", "lower"),
    ("runtime.executor.self_s", "s", "lower"),
    ("runtime.executor.spawned", "count", "lower"),
    ("runtime.executor.driver_s", "s", "lower"),
    ("runtime.executor.worker_busy_share", "ratio", "higher"),
    ("interp.import_s", "s", "lower"),
    ("sim.seconds", "s", "higher"),
    ("sim.main_tput_mbps", "Mbit/s", "higher"),
    ("sim.qdelay_mean_ms", "ms", "lower"),
    ("sim.mode_accuracy", "ratio", "higher"),
    ("sim.cross_flows", "count", "higher"),
    ("harness.trace_overhead_ratio", "ratio", "lower"),
    ("harness.span_coverage", "ratio", "higher"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: The root span the worker opens around a traced pass's timed region.
ROOT = ("harness", "timed_region")


def layer_metrics(recorder: SpanRecorder, workers: int) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced pass.

    The cache counters, ``interp.import_s``, ``sim.*`` and
    ``harness.trace_overhead_ratio`` come from the worker and the parent,
    which know the payloads and the untraced time.
    """
    rec = recorder
    root_s = rec.entry(*ROOT)[1]
    emit = rec.entry("endpoint", "Flow.emit")
    enqueue = rec.entry("link", "BottleneckLink.enqueue")
    service = rec.entry("link", "BottleneckLink.service")
    flush = rec.entry("link", "BottleneckLink.flush")
    detector_self = rec.layer("core.detector", 2)
    detector_calls = rec.layer("core.detector", 0)
    metrics = {
        "engine.self_s": rec.layer("engine", 2),
        "engine.ticks_per_host_s": _ratio(rec.engine["ticks"],
                                          rec.entry(*_NETWORK_RUN)[1]),
        "endpoint.emit_empty_ratio": _ratio(emit[3], emit[0]),
        "core.detector.self_s": detector_self,
        "core.detector.evals": detector_calls,
        "core.detector.us_per_eval": _ratio(detector_self * 1e6,
                                            detector_calls),
        "link.self_s": rec.layer("link", 2),
        "link.enqueue_calls": enqueue[0],
        "link.service_calls": service[0],
        "link.service_empty_ratio": _ratio(service[3], service[0]),
        "link.drop_records": enqueue[3] + flush[3],
        "traffic.self_s": rec.layer("traffic", 2),
        "traffic.arrivals": rec.layer("traffic", 0),
        "traffic.flows_created": rec.flows_created,
        "faults.self_s": rec.layer("faults", 2),
        "driver.self_s": rec.layer("driver", 2),
        "runtime.spec.self_s": rec.layer("runtime.spec", 2),
        "runtime.spec.hashes": rec.layer("runtime.spec", 0),
        "runtime.depgraph.self_s": rec.layer("runtime.depgraph", 2),
        "runtime.depgraph.digests": rec.layer("runtime.depgraph", 0),
        "runtime.cache.get_s": rec.entry("runtime.cache",
                                         "ResultCache.get")[2],
        "runtime.cache.put_s": rec.entry("runtime.cache",
                                         "ResultCache.put")[2],
        "runtime.journal.self_s": rec.layer("runtime.journal", 2),
        "runtime.journal.records": rec.layer("runtime.journal", 0),
        "runtime.manifest.expand_s": rec.layer("runtime.manifest", 2),
        "runtime.manifest.cells": rec.layer("runtime.manifest", 3),
        "runtime.campaign.self_s": rec.layer("runtime.campaign", 2),
        "runtime.executor.self_s": rec.layer("runtime.executor", 2),
        "runtime.executor.spawned": rec.executor["spawned"],
        "runtime.executor.driver_s": rec.executor["driver_s"],
        "runtime.executor.worker_busy_share": _ratio(
            rec.executor["driver_s"], workers * root_s),
        "harness.span_coverage": _ratio(
            sum(slot[2] for key, slot in rec.totals.items() if key != ROOT),
            root_s),
    }
    for key in _ENGINE_SUMS + _ENGINE_PEAKS:
        metrics[f"engine.{key}"] = rec.engine[key]
    for layer in ("endpoint", "measurement", "cc", "core.nimbus",
                  "core.estimator", "fluid", "recorder", "routing"):
        metrics[f"{layer}.self_s"] = rec.layer(layer, 2)
        metrics[f"{layer}.calls"] = rec.layer(layer, 0)
    return metrics
