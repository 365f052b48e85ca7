"""Deterministic link-fault injection: the chaos layer.

A :class:`FaultSchedule` is a validated, seeded list of
:class:`FaultEvent` windows that a :class:`~repro.simulator.topology.
TopologyNetwork` replays via its existing ``schedule_call`` mechanism —
no engine changes, no new event kinds in the event heap.  Four fault
kinds are supported:

``capacity_dip``
    Scale the link's drain rate by ``factor`` for the window, then restore
    the exact original float.  ``factor`` may exceed 1 (a burst of extra
    capacity) but must stay positive.
``link_flap``
    Take the link fully down.  With ``drop_queued=False`` (drain policy)
    the queue freezes and arrivals keep queueing under the normal
    admission policy; with ``drop_queued=True`` (drop policy) the queue is
    flushed into per-flow loss feedback and arrivals blackhole while down.
``delay_jitter``
    Add ``delay`` seconds to the link's propagation delay for the window.
    Only affects packets that cross the hop during the window.
``burst_loss``
    Wrap the link's admission policy so each offered chunk is dropped
    whole with probability ``loss_rate``, using a private
    ``random.Random`` stream derived from the schedule seed — the
    engine's own RNG is never consumed, so runs with and without faults
    stay comparable tick for tick outside the fault windows.

Every transition emits a ``fault_start``/``fault_end`` record through the
network's trace sink (when one is attached), and every kind preserves the
per-hop conservation law ``offered == served + queued + drops`` — flushed
bytes move to the drop counter, blackholed arrivals are counted as
offered-and-dropped, and the capacity/delay kinds touch no byte counter
at all.  ``REPRO_AUDIT`` therefore passes mid-flap.

Determinism: the schedule is a pure function of its events and seed.
Same events + same seed + same engine inputs → bit-identical results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .aqm import QueuePolicy
from .topology import TopologyNetwork

#: Every fault kind a :class:`FaultEvent` may carry.
FAULT_EVENT_KINDS = ("capacity_dip", "link_flap", "delay_jitter",
                     "burst_loss")


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
        delay: Extra propagation delay in seconds for ``delay_jitter``.
        loss_rate: Per-chunk drop probability for ``burst_loss`` (0..1).
    """

    kind: str
    link: str
    start: float
    duration: float
    factor: float = 0.5
    drop_queued: bool = False
    delay: float = 0.0
    loss_rate: float = 0.0

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
        if self.kind == "delay_jitter" and self.delay < 0:
            raise ValueError(f"delay_jitter delay must be >= 0, "
                             f"got {self.delay}")
        if self.kind == "burst_loss" and not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(f"burst_loss loss_rate must be in [0, 1], "
                             f"got {self.loss_rate}")

    @property
    def end(self) -> float:
        """Window end in simulation seconds."""
        return self.start + self.duration


class BurstLossPolicy(QueuePolicy):
    """Admission-policy wrapper that drops whole chunks at random.

    Decorates the link's real policy during a ``burst_loss`` window: each
    offered chunk is refused outright with probability ``loss_rate``,
    otherwise delegated to the wrapped policy.  Draws come from a private
    RNG so the engine's randomness is untouched.
    """

    def __init__(self, inner: QueuePolicy, loss_rate: float,
                 rng: random.Random) -> None:
        self.inner = inner
        self.loss_rate = loss_rate
        self._rng = rng

    def admit(self, chunk_bytes: float, queue_bytes: float,
              queue_delay: float, now: float) -> float:
        if self._rng.random() < self.loss_rate:
            return 0.0
        return self.inner.admit(chunk_bytes, queue_bytes, queue_delay, now)

    def on_dequeue(self, chunk_bytes: float, queue_delay: float,
                   now: float) -> None:
        self.inner.on_dequeue(chunk_bytes, queue_delay, now)

    def __repr__(self) -> str:
        return (f"BurstLossPolicy(loss_rate={self.loss_rate}, "
                f"inner={self.inner!r})")


@dataclass
class _ActiveFault:
    """Mutable bookkeeping for one scheduled event: what to restore."""

    event: FaultEvent
    index: int
    saved_capacity: float = 0.0
    saved_delay: float = 0.0
    saved_policy: Optional[QueuePolicy] = None
    detail: Dict[str, object] = field(default_factory=dict)


class FaultSchedule:
    """A validated, seeded set of fault windows for one network run.

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
        seed: Root seed for the randomised kinds (``burst_loss``).  Each
            event derives its own stream from ``(seed, event index)``, so
            adding an event never perturbs the draws of another.
    """

    def __init__(self, events: Sequence[FaultEvent], seed: int = 0) -> None:
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
        self.seed = int(seed)

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return (f"FaultSchedule({len(self.events)} event(s), "
                f"seed={self.seed})")

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
        for index, event in enumerate(self.events):
            active = _ActiveFault(event, index)
            network.schedule_call(
                event.start,
                lambda now, a=active, n=network: self._start(n, a, now))
            network.schedule_call(
                event.end,
                lambda now, a=active, n=network: self._end(n, a, now))

    # ------------------------------------------------------------------ #
    def _rng_for(self, active: _ActiveFault) -> random.Random:
        return random.Random(
            f"{self.seed}:{active.index}:{active.event.link}")

    def _start(self, network: TopologyNetwork, active: _ActiveFault,
               now: float) -> None:
        event = active.event
        position = network.topology.index_of(event.link)
        link = network.topology.links[position]
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
        elif event.kind == "delay_jitter":
            delays = network.topology.delays
            active.saved_delay = delays[position]
            delays[position] = active.saved_delay + event.delay
            detail["delay"] = event.delay
        elif event.kind == "burst_loss":
            active.saved_policy = link.policy
            link.policy = BurstLossPolicy(link.policy, event.loss_rate,
                                          self._rng_for(active))
            detail["loss_rate"] = event.loss_rate
        self._emit(network, "fault_start", event, now, detail)

    def _end(self, network: TopologyNetwork, active: _ActiveFault,
             now: float) -> None:
        event = active.event
        position = network.topology.index_of(event.link)
        link = network.topology.links[position]
        if event.kind == "capacity_dip":
            link.set_capacity(active.saved_capacity)
        elif event.kind == "link_flap":
            link.bring_up()
            network.on_link_up(event.link)
        elif event.kind == "delay_jitter":
            network.topology.delays[position] = active.saved_delay
        elif event.kind == "burst_loss":
            link.policy = active.saved_policy
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
