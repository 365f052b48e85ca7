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
    stands for a crowd, not a flow), but located on a ``link``.

``REPRO_TRACE=<path>`` wires a :class:`JsonlTraceSink` into every engine
built afterwards (the runner's ``--trace`` flag sets it for one
invocation).  The sink writes every record; a subset is selected when the
file is read (``grep -E '"event":"(drop|loss)"' trace.jsonl``).  In
Python, assign any object with ``emit(record)`` and ``flush()`` methods
to an engine's attribute (``network.trace_sink = sink``; ``None``
detaches it).
"""

from __future__ import annotations

import json
import os
import weakref
from typing import IO, Optional, Union

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
#: one flow, so a record of these kinds carries no ``flow_id``/``flow``.
CONTROL_KINDS = FAULT_KINDS | {"route_change", "fluid_sample"}

#: Kinds that carry a ``link`` field.
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


class JsonlTraceSink:
    """Writes every record as one JSON object per line, appending to a file.

    Records are serialised with sorted keys and compact separators, so a
    kind is selected when the file is read: ``grep '"event":"drop"'``.
    Append mode lets several sequentially-built networks of one batch (or
    one process) share a trace file; each record is written as a single
    ``write`` call so lines stay whole.  The sink opens the file on its
    first write and closes it in :meth:`flush` (which ends every engine
    ``run``), so it never holds a handle between runs; a later write
    reopens it.  A write after the last run (``add_flow`` on a finished
    network) is closed, and so written out, when the sink is collected or
    the interpreter exits.
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self._path = path
        self._handle: Optional[IO[str]] = None

    def emit(self, record: dict) -> None:
        if self._handle is None:
            self._handle = open(self._path, "a", encoding="utf-8")
            self._close = weakref.finalize(self, self._handle.close)
        self._handle.write(json.dumps(record, separators=(",", ":"),
                                      sort_keys=True) + "\n")

    def flush(self) -> None:
        if self._handle is not None:
            self._close()
            self._handle = None


def sink_from_env(environ=None) -> Optional[JsonlTraceSink]:
    """The sink ``REPRO_TRACE=<path>`` asks for, or ``None`` when unset."""
    environ = os.environ if environ is None else environ
    path = environ.get("REPRO_TRACE", "").strip()
    return JsonlTraceSink(path) if path else None
