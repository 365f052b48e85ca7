"""Structured event tracing for the simulator: the flight recorder.

The :class:`~repro.simulator.topology.TopologyNetwork` engine can narrate a
run as a stream of structured events — every enqueue, drop, hop forward,
delivery, ACK, loss feedback, and estimator mode change — through a *trace
sink*, its ``trace_sink`` attribute.  The sink is ``None`` by default, and
every emission site is guarded by a single ``is not None`` check, so a run
without tracing executes the exact event sequence (and produces the exact
bytes) it always did.  The trace only observes: no result is read back
from it (the routing records a driver reports come from the engine's own
``route_events`` log, kept whether or not a sink is attached).

Trace record schema (``TRACE_SCHEMA_VERSION`` = 1).  Every record is one
JSON object per line with at least:

``time``
    Simulation time in seconds (float).
``event``
    One of :data:`EVENT_KINDS` (see below).
``flow_id`` / ``flow``
    Numeric id and label of the flow the event belongs to.

Per-kind payload fields:

``flow_start``
    ``cc`` (algorithm name), ``path`` (list of link names), ``start``
    (scheduled start time).
``enqueue``
    First-hop admission: ``link``, ``hop`` (index of the node the chunk
    is at — the node ``link`` leaves from; 0 for a flow entering at the
    head of a chain), ``bytes``, ``seq``.
``hop``
    Arrival at an interior node (the ``_HOP`` forward) and admission to
    the link its table picks: ``link``, ``hop`` (that node's index),
    ``bytes``, ``seq``.
``drop``
    Bytes refused by a hop's queue policy: ``link``, ``hop``, ``bytes``.
``delivery``
    Chunk reaches its receiver: ``bytes``, ``seq``, ``queue_delay``
    (accumulated queueing delay in seconds).
``ack``
    Acknowledgement back at the sender: ``bytes``, ``rtt`` (seconds),
    ``queue_delay``.
``loss``
    Loss feedback arriving at the sender (one remaining-path-plus-ACK
    delay after the drop): ``bytes``.
``mode_change``
    A mode-switching algorithm (Nimbus, Copa) changed mode: ``mode``,
    ``from_mode``.
``flow_finish``
    Flow completed: ``fct`` (flow completion time in seconds, or null).
``fault_start`` / ``fault_end``
    A scheduled fault toggled on a link (see
    :mod:`repro.simulator.faults`): ``link``, ``fault`` (``capacity_dip``
    or ``link_flap``), plus kind-specific detail on ``fault_start``
    (``factor``, ``drop_queued``, ``flushed_bytes``).  Fault events are
    control-plane and carry no ``flow_id``/``flow`` — they describe the
    network, not a flow.
``route_change``
    A convergence pass (:func:`repro.simulator.routing.convergence_pass`)
    re-resolved one routing-table entry: ``node``, ``destination``,
    ``from_link`` (previous next hop, or null on first resolution),
    ``to_link`` (new next hop, or null when no candidate survives).
    Control-plane like the fault kinds: no ``flow_id``/``flow``.
``blackhole_start`` / ``blackhole_end``
    A routed flow lost (regained) every path to its destination:
    ``node`` (the flow's source node) and ``destination``.  While
    blackholed the flow's emissions become loss feedback instead of
    entering any queue.
``fluid_sample``
    Periodic snapshot of one fluid-aggregate background class (see
    :mod:`repro.simulator.fluid`), emitted every 50 ticks: ``link``,
    ``class`` (the class name), ``kind`` (``elastic``/``inelastic``),
    cumulative ``offered``/``served``/``dropped`` byte counters, the
    current queue ``backlog`` in bytes, the instantaneous send ``rate``
    in bytes/s, and the estimated live ``flows`` count.  Control-plane
    like the fault kinds: no ``flow_id``/``flow`` envelope (a class
    stands for a crowd, not a flow), but subject to the link filter.

Sinks support four orthogonal reductions, applied in ``emit``:

* **per-flow filter** — keep only events whose ``flow`` label (or
  ``flow_id``) is in a given set,
* **per-link filter** — keep only link-located events (every kind in
  :data:`LINK_KINDS`: enqueue, hop, drop, the fault kinds and
  ``fluid_sample``) on the named links, plus all non-link events,
* **per-kind filter** — keep only the named event kinds,
* **1-in-N sampling** — keep every Nth *data-plane* event (enqueue, hop,
  delivery, ack); control-plane events (drops, losses, mode changes, flow
  lifecycle) are always precious and never sampled away.

``REPRO_TRACE=<path>`` wires a :class:`JsonlTraceSink` into every engine
built afterwards (the runner's ``--trace`` flag sets it for one
invocation); ``REPRO_TRACE_SAMPLE``, ``REPRO_TRACE_FLOWS``,
``REPRO_TRACE_LINKS``, and ``REPRO_TRACE_EVENTS`` configure the filters.
In Python, assign a sink to an engine's attribute
(``network.trace_sink = sink``; ``None`` detaches it).
"""

from __future__ import annotations

import json
import os
from typing import IO, Iterable, List, Optional, Union

#: Version stamp carried by documentation and validated goldens; bump when
#: a field is renamed or removed (additions are compatible).
TRACE_SCHEMA_VERSION = 1

#: Every event kind the engine emits.
EVENT_KINDS = frozenset({
    "flow_start",
    "enqueue",
    "hop",
    "drop",
    "delivery",
    "ack",
    "loss",
    "mode_change",
    "flow_finish",
    "fault_start",
    "fault_end",
    "route_change",
    "blackhole_start",
    "blackhole_end",
    "fluid_sample",
})

#: Link-fault lifecycle kinds.
FAULT_KINDS = frozenset({"fault_start", "fault_end"})

#: Control-plane kinds without a flow envelope: they describe the network
#: (a fault window, a routing-table entry, a fluid traffic class), not any
#: one flow, so per-flow filters never discard them.
CONTROL_KINDS = FAULT_KINDS | {"route_change", "fluid_sample"}

#: High-volume data-plane kinds that 1-in-N sampling applies to.  Everything
#: else (drops, losses, mode changes, flow lifecycle) is rare and always kept.
SAMPLED_KINDS = frozenset({"enqueue", "hop", "delivery", "ack"})

#: Kinds that carry a ``link`` field (and are subject to the link filter).
LINK_KINDS = frozenset({"enqueue", "hop", "drop", "fault_start", "fault_end",
                        "fluid_sample"})

#: Required payload fields per kind, beyond the common
#: ``time``/``event``/``flow_id``/``flow`` envelope.
_REQUIRED_FIELDS = {
    "flow_start": ("cc", "path", "start"),
    "enqueue": ("link", "hop", "bytes", "seq"),
    "hop": ("link", "hop", "bytes", "seq"),
    "drop": ("link", "hop", "bytes"),
    "delivery": ("bytes", "seq", "queue_delay"),
    "ack": ("bytes", "rtt", "queue_delay"),
    "loss": ("bytes",),
    "mode_change": ("mode", "from_mode"),
    "flow_finish": ("fct",),
    "fault_start": ("link", "fault"),
    "fault_end": ("link", "fault"),
    "route_change": ("node", "destination", "from_link", "to_link"),
    "blackhole_start": ("node", "destination"),
    "blackhole_end": ("node", "destination"),
    "fluid_sample": ("link", "class", "kind", "offered", "served",
                     "dropped", "backlog", "rate", "flows"),
}

_NUMBER = (int, float)


def validate_trace_record(record: dict) -> None:
    """Raise ``ValueError`` unless ``record`` matches the documented schema."""
    if not isinstance(record, dict):
        raise ValueError(f"trace record must be an object, got "
                         f"{type(record).__name__}")
    kind = record.get("event")
    if kind not in EVENT_KINDS:
        raise ValueError(f"unknown trace event kind {kind!r}; "
                         f"known: {sorted(EVENT_KINDS)}")
    time = record.get("time")
    if not isinstance(time, _NUMBER) or isinstance(time, bool) or time < 0:
        raise ValueError(f"trace record needs a non-negative numeric "
                         f"'time', got {time!r}")
    if kind in CONTROL_KINDS:
        if kind in FAULT_KINDS:
            fault = record.get("fault")
            if not isinstance(fault, str):
                raise ValueError(f"{kind} record needs a string 'fault' "
                                 f"kind, got {fault!r}")
    else:
        if not isinstance(record.get("flow_id"), int):
            raise ValueError(f"trace record needs an integer 'flow_id', "
                             f"got {record.get('flow_id')!r}")
        if not isinstance(record.get("flow"), str):
            raise ValueError(f"trace record needs a string 'flow' label, "
                             f"got {record.get('flow')!r}")
    for name in _REQUIRED_FIELDS[kind]:
        if name not in record:
            raise ValueError(f"{kind} record is missing field {name!r}: "
                             f"{record}")
    for name in ("bytes", "seq", "queue_delay", "rtt", "start",
                 "factor", "flushed_bytes",
                 "offered", "served", "dropped", "backlog", "rate", "flows"):
        if name in record and (not isinstance(record[name], _NUMBER)
                               or isinstance(record[name], bool)):
            raise ValueError(f"{kind} field {name!r} must be numeric, "
                             f"got {record[name]!r}")
    if kind in LINK_KINDS and not isinstance(record.get("link"), str):
        raise ValueError(f"{kind} record needs a string 'link', "
                         f"got {record.get('link')!r}")
    if kind in ("route_change", "blackhole_start", "blackhole_end"):
        for name in ("node", "destination"):
            if not isinstance(record.get(name), str):
                raise ValueError(f"{kind} record needs a string {name!r}, "
                                 f"got {record.get(name)!r}")
    if kind == "route_change":
        for name in ("from_link", "to_link"):
            value = record.get(name)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"route_change field {name!r} must be a "
                                 f"link name or null, got {value!r}")
    if kind == "fluid_sample":
        for name in ("class", "kind"):
            if not isinstance(record.get(name), str):
                raise ValueError(f"fluid_sample record needs a string "
                                 f"{name!r}, got {record.get(name)!r}")


class TraceSink:
    """Base trace sink: filtering and sampling, with storage left abstract.

    Subclasses implement :meth:`write`; :meth:`emit` applies the flow/link
    filters and the 1-in-N sample before forwarding.  The engine only ever
    calls :meth:`emit`, and :meth:`flush` at the end of each ``run``.

    Args:
        flows: Keep only events of these flows, matched against the flow
            *label* (str entries) or *id* (int entries).  ``None`` keeps all.
        links: Keep only link-located events (every kind in
            :data:`LINK_KINDS`) on these link names; events without a link
            are unaffected.  ``None`` keeps all.
        events: Keep only these event kinds.  ``None`` keeps all.
        sample: Keep every ``sample``-th data-plane event (see
            :data:`SAMPLED_KINDS`); control-plane events are always kept.
    """

    def __init__(self, flows: Optional[Iterable[Union[str, int]]] = None,
                 links: Optional[Iterable[str]] = None,
                 events: Optional[Iterable[str]] = None,
                 sample: int = 1) -> None:
        if sample < 1:
            raise ValueError("sample must be >= 1 (1 keeps every event)")
        self.flows = frozenset(flows) if flows is not None else None
        self.links = frozenset(links) if links is not None else None
        if events is not None:
            events = frozenset(events)
            unknown = events - EVENT_KINDS
            if unknown:
                raise ValueError(f"unknown event kinds {sorted(unknown)}; "
                                 f"known: {sorted(EVENT_KINDS)}")
        self.events = events
        self.sample = int(sample)
        self._seen = 0
        #: Records actually written (post-filter, post-sample).
        self.emitted = 0

    # ------------------------------------------------------------------ #
    def admit(self, record: dict) -> bool:
        """Whether ``record`` survives the filters and the sampler."""
        kind = record["event"]
        if self.events is not None and kind not in self.events:
            return False
        if self.flows is not None and kind not in CONTROL_KINDS and \
                record["flow"] not in self.flows and \
                record["flow_id"] not in self.flows:
            # Control-plane events (faults, route changes) have no flow
            # envelope: a flow filter never discards them (they are
            # context for whichever flows remain).
            return False
        if self.links is not None and kind in LINK_KINDS and \
                record["link"] not in self.links:
            return False
        if self.sample > 1 and kind in SAMPLED_KINDS:
            self._seen += 1
            if self._seen % self.sample:
                return False
        return True

    def emit(self, record: dict) -> None:
        if self.admit(record):
            self.emitted += 1
            self.write(record)

    def write(self, record: dict) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered records to stable storage (default: nothing)."""


class JsonlTraceSink(TraceSink):
    """Serialises one JSON object per line to a file (append mode).

    Append mode lets several sequentially-built networks of one batch (or
    one process) share a trace file; each record is written as a single
    ``write`` call so lines stay whole.  A sink given a path opens the file
    on its first write and closes it in :meth:`flush` (which ends every
    engine ``run``), so it never holds a handle between runs; a later
    write reopens it.

    Args:
        target: Path to append to, or an already-open text handle (which
            the caller keeps ownership of: the sink only flushes it).
        **filters: See :class:`TraceSink`.
    """

    def __init__(self, target: Union[str, os.PathLike, IO[str]],
                 **filters) -> None:
        super().__init__(**filters)
        if hasattr(target, "write"):
            self._path = None
            self._handle: Optional[IO[str]] = target  # type: ignore
        else:
            self._path = target
            self._handle = None

    def write(self, record: dict) -> None:
        if self._handle is None:
            self._handle = open(self._path, "a", encoding="utf-8")
        self._handle.write(json.dumps(record, separators=(",", ":"),
                                      sort_keys=True) + "\n")

    def flush(self) -> None:
        if self._handle is None:
            return
        self._handle.flush()
        if self._path is not None:
            self._handle.close()
            self._handle = None


def _split_env_list(raw: str) -> Optional[List[str]]:
    values = [item.strip() for item in raw.split(",") if item.strip()]
    return values or None


def sink_from_env(environ=None) -> Optional[JsonlTraceSink]:
    """Build the environment-configured trace sink, or ``None``.

    ``REPRO_TRACE=<path>`` enables tracing; ``REPRO_TRACE_SAMPLE=<N>``,
    ``REPRO_TRACE_FLOWS=a,b``, ``REPRO_TRACE_LINKS=hop1,hop2``, and
    ``REPRO_TRACE_EVENTS=drop,loss`` configure the sink's filters.  Flow
    entries that parse as integers match flow ids.
    """
    environ = os.environ if environ is None else environ
    path = environ.get("REPRO_TRACE", "").strip()
    if not path:
        return None
    sample = 1
    raw_sample = environ.get("REPRO_TRACE_SAMPLE", "").strip()
    if raw_sample:
        try:
            sample = max(1, int(raw_sample))
        except ValueError:
            raise ValueError(f"REPRO_TRACE_SAMPLE must be an integer, "
                             f"got {raw_sample!r}")
    flows: Optional[List[Union[str, int]]] = None
    raw_flows = _split_env_list(environ.get("REPRO_TRACE_FLOWS", ""))
    if raw_flows is not None:
        flows = [int(item) if item.lstrip("-").isdigit() else item
                 for item in raw_flows]
    links = _split_env_list(environ.get("REPRO_TRACE_LINKS", ""))
    events = _split_env_list(environ.get("REPRO_TRACE_EVENTS", ""))
    return JsonlTraceSink(path, flows=flows, links=links, events=events,
                          sample=sample)
