"""Deterministic link-fault injection: the chaos layer.

A :class:`FaultSchedule` is a validated list of :class:`FaultEvent`
windows that a :class:`~repro.simulator.topology.TopologyNetwork` replays
via its existing ``schedule_call`` mechanism — no engine changes, no new
event kinds in the event heap.  Two fault kinds are supported:

``capacity_dip``
    Scale the link's drain rate by ``factor`` for the window, then restore
    the exact original float.  ``factor`` may exceed 1 (a burst of extra
    capacity) but must stay positive.
``link_flap``
    Take the link fully down.  With ``drop_queued=False`` (drain policy)
    the queue freezes and arrivals keep queueing under the normal
    admission policy; with ``drop_queued=True`` (drop policy) the queue is
    flushed into per-flow loss feedback and arrivals blackhole while down.

Every transition emits a ``fault_start``/``fault_end`` record through the
network's trace sink (when one is attached), and every kind preserves the
per-hop conservation law ``offered == served + queued + drops`` — flushed
bytes move to the drop counter, blackholed arrivals are counted as
offered-and-dropped, and a capacity dip touches no byte counter at all.
``REPRO_AUDIT`` therefore passes mid-flap.  Neither kind draws a random
number, so the same events and engine inputs give bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .topology import TopologyNetwork

#: Every fault kind a :class:`FaultEvent` may carry.
FAULT_EVENT_KINDS = ("capacity_dip", "link_flap")


@dataclass(frozen=True)
class FaultEvent:
    """One fault window on one link, in engine units (bytes, seconds).

    Args:
        kind: One of :data:`FAULT_EVENT_KINDS`.
        link: Name of the target link (validated against the topology when
            the schedule is applied).
        start: Window start in simulation seconds (>= 0).
        duration: Window length in seconds (> 0).
        factor: Capacity multiplier during a ``capacity_dip`` (> 0).
        drop_queued: ``link_flap`` queue policy — drop (flush + blackhole)
            instead of drain (freeze + keep admitting).
    """

    kind: str
    link: str
    start: float
    duration: float
    factor: float = 0.5
    drop_queued: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_EVENT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"known: {list(FAULT_EVENT_KINDS)}")
        if self.start < 0:
            raise ValueError(f"fault start must be >= 0, got {self.start}")
        if self.duration <= 0:
            raise ValueError(f"fault duration must be positive, "
                             f"got {self.duration}")
        if self.kind == "capacity_dip" and self.factor <= 0:
            raise ValueError(f"capacity_dip factor must be positive, "
                             f"got {self.factor}")

    @property
    def end(self) -> float:
        """Window end in simulation seconds."""
        return self.start + self.duration


@dataclass
class _ActiveFault:
    """Mutable bookkeeping for one scheduled event: what to restore."""

    event: FaultEvent
    saved_capacity: float = 0.0
    detail: Dict[str, object] = field(default_factory=dict)


class FaultSchedule:
    """A validated set of fault windows for one network run.

    The constructor checks every event and rejects overlapping windows on
    the same link (the restore logic would otherwise clobber saved state).
    Windows that merely *touch* — ``current.start == previous.end`` on the
    same link — are legal, with a guaranteed ordering: :meth:`apply`
    schedules each event's start then end in ascending-start order, and
    the engine dispatches same-time events in scheduling order, so at a
    shared boundary the earlier window's restore always runs *before* the
    later window's effect is applied.  Back-to-back windows therefore
    never see each other's modified link state (a second ``capacity_dip``
    scales the nominal capacity, not the already-dipped one); see
    ``tests/test_faults.py::TestFaultEventValidation::
    test_touching_windows_restore_before_apply``.
    :meth:`apply` arms the schedule on a network: one ``schedule_call``
    per window edge, each emitting a ``fault_start``/``fault_end`` trace
    record when a sink is attached.

    Args:
        events: The fault windows; order does not matter.
    """

    def __init__(self, events: Sequence[FaultEvent]) -> None:
        events = tuple(events)
        for event in events:
            if not isinstance(event, FaultEvent):
                raise TypeError(f"FaultSchedule needs FaultEvent entries, "
                                f"got {type(event).__name__}")
        by_link: Dict[str, List[FaultEvent]] = {}
        for event in events:
            by_link.setdefault(event.link, []).append(event)
        for link, windows in by_link.items():
            windows.sort(key=lambda e: e.start)
            for previous, current in zip(windows, windows[1:]):
                if current.start < previous.end - 1e-12:
                    raise ValueError(
                        f"overlapping fault windows on link {link!r}: "
                        f"[{previous.start}, {previous.end}) and "
                        f"[{current.start}, {current.end})")
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.start, e.link, e.kind)))

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"FaultSchedule({len(self.events)} event(s))"

    # ------------------------------------------------------------------ #
    def apply(self, network: TopologyNetwork) -> None:
        """Arm every fault window on ``network`` via ``schedule_call``.

        Validates that each event names a link of the network's topology.
        May be called at any simulation time; windows already entirely in
        the past still fire (immediately, in ``schedule_call`` order),
        keeping start/end pairing intact.
        """
        topology = network.topology
        for event in self.events:
            topology.index_of(event.link)  # raises on unknown link names
        for event in self.events:
            active = _ActiveFault(event)
            network.schedule_call(
                event.start,
                lambda now, a=active, n=network: self._start(n, a, now))
            network.schedule_call(
                event.end,
                lambda now, a=active, n=network: self._end(n, a, now))

    # ------------------------------------------------------------------ #
    def _start(self, network: TopologyNetwork, active: _ActiveFault,
               now: float) -> None:
        event = active.event
        link = network.topology.link(event.link)
        detail = active.detail
        if event.kind == "capacity_dip":
            active.saved_capacity = link.capacity
            link.set_capacity(link.capacity * event.factor)
            detail["factor"] = event.factor
        elif event.kind == "link_flap":
            detail["drop_queued"] = event.drop_queued
            if event.drop_queued:
                detail["flushed_bytes"] = \
                    network.flush_link_queue(event.link)
            link.take_down(refuse_arrivals=event.drop_queued)
            network.on_link_down(event.link)
        self._emit(network, "fault_start", event, now, detail)

    def _end(self, network: TopologyNetwork, active: _ActiveFault,
             now: float) -> None:
        event = active.event
        link = network.topology.link(event.link)
        if event.kind == "capacity_dip":
            link.set_capacity(active.saved_capacity)
        elif event.kind == "link_flap":
            link.bring_up()
            network.on_link_up(event.link)
        self._emit(network, "fault_end", event, now, {})

    @staticmethod
    def _emit(network: TopologyNetwork, kind: str, event: FaultEvent,
              now: float, detail: Dict[str, object]) -> None:
        sink = network.trace_sink
        if sink is None:
            return
        record = {"time": now, "event": kind,
                  "link": event.link, "fault": event.kind}
        record.update(detail)
        sink.emit(record)
