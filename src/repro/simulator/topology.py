"""The network engine: nodes, directed links, per-node forwarding tables.

A :class:`Topology` is a small directed graph.  Named *nodes* are joined by
named :class:`~repro.simulator.link.BottleneckLink`\\ s, each with its own
queue policy and a *downstream propagation delay* — the time a chunk spends
on the wire between leaving that link and reaching the node at its far
end.  Every node owns a forwarding table: for each destination node, an
ordered tuple of candidate outgoing links (primary first, then backups) and
the *active* choice chunks actually follow (see
:mod:`repro.simulator.routing` for how tables are computed and
re-resolved).  Links added without endpoints extend a chain, so a chain is
simply a graph whose every node has one outgoing link — and the single
bottleneck of the paper's emulated experiments is a chain of length one.

:class:`TopologyNetwork` is the one tick engine over that graph.  Every
flow is a ``(source node, destination node)`` pair and every chunk is
forwarded by the same ``next_hop[node][destination]`` lookup; a static path
is just a table that is never re-resolved (``convergence_delay=None``, the
default), while a number makes link flaps trigger convergence-delayed
failover onto the backups.

Timing model:

* senders are adjacent to the first link of their route — an emitted chunk
  enters that queue in the same tick,
* a chunk served by a link that does not end at the flow's destination is
  scheduled to arrive at the next node after that link's propagation delay
  (a ``_HOP`` event), where it is forwarded by table lookup,
* a chunk served by a link that ends at its destination reaches the
  receiver after the flow's ``delay_to_receiver`` and is acknowledged after
  the flow's ``delay_ack``, so a flow's base RTT is
  ``sum(intermediate link delays) + flow.prop_rtt``,
* bytes dropped at any hop are reported to the sender one remaining-route
  -plus-ACK delay after the drop, which is when duplicate ACKs would reveal
  the hole.

With a single link no ``_HOP`` event ever fires: every chunk goes straight
from the bottleneck to its receiver.

Events wait in one global heap of ``(time, counter, kind, payload)``
entries.  Each tick the clock advances by ``now += dt`` and every event
with ``time <= now + 1e-12`` is popped in ``(time, counter)`` order — so
events due at one time fire in push order, and an event a handler pushes
for a time already due fires in the same tick.  Workloads with thousands of
short cross flows benefit from the engine keeping an explicit roster of
*active* flows: finished flows cost nothing per tick instead of being
re-scanned forever.  Of the roster, ``_emit_all`` asks only the flows that
time alone could unblock; one that found no budget and is clocked purely by
feedback (a window-limited or drained Cubic flow — the flow works that out
from what its algorithm and source *are*, see
:mod:`repro.simulator.endpoint`) is passed over until an ACK, a loss or
``stop`` wakes it.  It stays in the roster, keeps its place in the rotation
and, if the recorder samples it, is still sampled every tick.  The engine
tells the recorder when a flow joins or leaves the roster; the recorder
keeps its own list of the flows it samples per tick (see
:mod:`repro.simulator.trace`).
"""

from __future__ import annotations

import os
from bisect import bisect_left, insort
from heapq import heappop, heappush
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from . import routing
from .aqm import QueuePolicy
from .endpoint import Flow
from .fluid import FluidClass, FluidLinkState
from .link import BottleneckLink, DropRecord
from .packet import Ack, Chunk
from .telemetry import JsonlTraceSink, sink_from_env
from .trace import Recorder

#: Slack applied to every "has this event's time arrived?" comparison: an
#: event up to this far past the clock reading still fires on that tick, so
#: float residue in ``now += dt`` never pushes it to the next one.
_EPS = 1e-12

#: Tick period of the ``REPRO_AUDIT=1`` conservation re-check (``REPRO_AUDIT``
#: set to an integer > 1 overrides the period directly).
_AUDIT_DEFAULT_TICKS = 256

#: Event kinds of the engine heap's ``(time, counter, kind, payload)``
#: entries (module constants: the dispatch loop compares one per event).
_DELIVER = 0
_ACK = 1
_LOSS = 2
_CALL = 3
_START = 4
_HOP = 5

#: Tick period of the ``fluid_sample`` telemetry emission (trace-enabled
#: runs with fluid classes only): 0.1 s at the standard 2 ms tick, the same
#: cadence as the recorder's bins.
_FLUID_TRACE_TICKS = 50


class AuditError(AssertionError):
    """A ``REPRO_AUDIT`` invariant re-check failed mid-run."""


def _audit_period_from_env(environ=None) -> int:
    """The conservation-audit period in ticks; 0 when auditing is off."""
    environ = os.environ if environ is None else environ
    raw = environ.get("REPRO_AUDIT", "").strip().lower()
    if not raw or raw in ("0", "false", "no", "off"):
        return 0
    try:
        period = int(raw)
    except ValueError:
        return _AUDIT_DEFAULT_TICKS
    return period if period > 1 else _AUDIT_DEFAULT_TICKS


#: Anything accepted where an explicit path is expected: a single link name
#: or a sequence of link names / link positions.
PathLike = Union[str, Sequence[Union[str, int]]]


class Topology:
    """Named nodes joined by directed links, each node forwarding by table.

    ``add_link`` / ``attach`` with ``src=`` / ``dst=`` wire a link between
    two existing nodes; without them the link extends a chain — it leaves
    the node the previous link ended at (a fresh first node when there is
    none) and ends at a fresh node.  Forwarding tables are recomputed from
    shortest paths on every attachment (ties break on attachment order, so
    a chain's only route is the chain).

    One link is the *monitor* link — the queue the
    :class:`~repro.simulator.trace.Recorder` tracks and the one exposed as
    ``network.link``; it is the first link attached until
    :meth:`set_monitor` names another.
    """

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        #: Links in insertion order; positions double as link ids.
        self.links: List[BottleneckLink] = []
        #: links[i]'s propagation delay to the node it ends at, in seconds.
        self.delays: List[float] = []
        #: Endpoint node ids per link position.
        self.link_src: List[int] = []
        self.link_dst: List[int] = []
        #: Node names in creation order; positions double as node ids.
        self.nodes: List[str] = []
        #: Forwarding tables, ``[node][destination]``: the ordered candidate
        #: link positions, and the active choice chunks follow (``None``
        #: when no candidate survives).
        self.candidates: List[List[Tuple[int, ...]]] = []
        self.next_hop: List[List[Optional[int]]] = []
        self._index: Dict[str, int] = {}
        self._node_index: Dict[str, int] = {}
        self._monitor = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(self, name: str) -> int:
        """Create a node (no routes reach it until a link does)."""
        if name in self._node_index:
            raise ValueError(f"duplicate node name {name!r}")
        index = self._node_index[name] = len(self.nodes)
        self.nodes.append(name)
        for candidates, active in zip(self.candidates, self.next_hop):
            candidates.append(())
            active.append(None)
        self.candidates.append([()] * (index + 1))
        self.next_hop.append([None] * (index + 1))
        return index

    def attach(self, link: BottleneckLink, delay: float = 0.0,
               src: Optional[str] = None,
               dst: Optional[str] = None) -> BottleneckLink:
        """Wire an existing link from node ``src`` to node ``dst``.

        ``src=None`` continues from where the previous link ended and
        ``dst=None`` ends at a fresh node, so endpoint-less calls build a
        chain in attachment order.
        """
        if delay < 0:
            raise ValueError("propagation delay must be >= 0")
        if link.name in self._index:
            raise ValueError(f"duplicate link name {link.name!r}")
        if src is not None:
            source = self.node_index(src)
        elif self.links:
            source = self.link_dst[-1]
        else:
            source = self.add_node(f"n{len(self.nodes)}")
        if dst is None:
            target = self.add_node(f"n{len(self.nodes)}")
        else:
            target = self.node_index(dst)
            if source == target:
                raise ValueError(
                    f"link {link.name!r} cannot loop on node {dst!r}")
        self._index[link.name] = len(self.links)
        self.links.append(link)
        self.delays.append(delay)
        self.link_src.append(source)
        self.link_dst.append(target)
        routing.compute_routes(self)
        return link

    def add_link(self, name: str, capacity: float, delay: float = 0.0,
                 policy: Optional[QueuePolicy] = None,
                 src: Optional[str] = None,
                 dst: Optional[str] = None) -> BottleneckLink:
        """Create and attach a link: per-hop capacity, delay, queue policy."""
        return self.attach(BottleneckLink(capacity, policy=policy, name=name),
                           delay=delay, src=src, dst=dst)

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no link named {name!r}; "
                           f"known: {sorted(self._index)}") from None

    def node_index(self, name: str) -> int:
        try:
            return self._node_index[name]
        except KeyError:
            raise KeyError(f"no node named {name!r}; "
                           f"known: {sorted(self._node_index)}") from None

    def link(self, name: str) -> BottleneckLink:
        return self.links[self.index_of(name)]

    def set_monitor(self, name: str) -> None:
        self._monitor = self.index_of(name)

    @property
    def monitor_link(self) -> BottleneckLink:
        """The link recorded by the engine's Recorder (``network.link``)."""
        return self.links[self._monitor]

    def resolve_path(self, path: PathLike) -> Tuple[int, ...]:
        """Normalise an explicit :data:`PathLike` into link positions.

        Consecutive links must share a node — each one starts where the
        previous one ends — so a path can never teleport a chunk.
        """
        names = (path,) if isinstance(path, str) else tuple(path)
        if not names:
            raise ValueError("a path needs at least one link")
        route = tuple(name if isinstance(name, int) else self.index_of(name)
                      for name in names)
        for position in route:
            if not 0 <= position < len(self.links):
                raise IndexError(f"link position {position} out of range")
        for before, after in zip(route, route[1:]):
            if self.link_dst[before] != self.link_src[after]:
                raise ValueError(
                    f"path is not contiguous: link "
                    f"{self.links[before].name!r} ends at node "
                    f"{self.nodes[self.link_dst[before]]!r} but "
                    f"{self.links[after].name!r} starts at "
                    f"{self.nodes[self.link_src[after]]!r}")
        return route

    def __repr__(self) -> str:
        hops = ", ".join(
            f"{link.name}:{self.nodes[s]}->{self.nodes[d]}"
            f"(+{delay * 1e3:.0f}ms)"
            for link, s, d, delay in zip(self.links, self.link_src,
                                         self.link_dst, self.delays))
        return f"Topology({self.name!r}: {hops})"


class TopologyNetwork:
    """Tick-driven engine over a :class:`Topology` of store-and-forward hops.

    Args:
        topology: The wired node/link graph with its forwarding tables.
        dt: Simulation tick in seconds.
        convergence_delay: Seconds between a link-state change
            (:meth:`on_link_down` / :meth:`on_link_up`) and the convergence
            pass that re-resolves the tables — the modelled routing-protocol
            reaction lag; ``0`` converges within the same tick.  ``None``
            (the default) never re-resolves: routes stay frozen and a downed
            link is a dead end.

    Each tick the engine dispatches the events that have come due (chunk
    arrivals at the next node or the receiver, ACKs and loss notifications
    back at senders, scheduled callbacks), offers every active flow the
    chance to emit one chunk into the first link of its route, and serves
    every link up to ``capacity * dt`` bytes.  A chunk's ``hop`` field
    holds the index of the *node* it is at.

    ``trace_sink`` is the sink the engine narrates structured events to: a
    :class:`~repro.simulator.telemetry.JsonlTraceSink` built from the
    environment (``REPRO_TRACE``) at construction, assigned directly
    otherwise.  The engine calls only ``emit(record)`` and ``flush()`` (at
    the end of every ``run``), so any object with those two methods can
    stand in.  With ``None`` every emission site reduces to one pointer
    check and the run is numerically identical to an untraced engine.
    ``route_events`` logs every ``route_change`` / ``blackhole_start`` /
    ``blackhole_end`` record in order, sink or no sink (see
    :meth:`route_event`).
    """

    def __init__(self, topology: Topology, dt: float = 0.001,
                 convergence_delay: Optional[float] = None) -> None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        if not topology.links:
            raise ValueError("topology has no links")
        if convergence_delay is not None and convergence_delay < 0:
            raise ValueError("convergence_delay must be >= 0")
        self.topology = topology
        self.convergence_delay = convergence_delay
        #: The monitor link: what the Recorder tracks and what single-
        #: bottleneck code reaches via ``network.link``.
        self.link = topology.monitor_link
        self._links = topology.links
        self.dt = dt
        self.now = 0.0
        self.flows: List[Flow] = []
        #: Per-flow endpoints (node ids), indexed by flow id.
        self._flow_src: List[int] = []
        self._flow_dst: List[int] = []
        #: The link each flow's emissions enter, by flow id — one list
        #: index on the per-chunk path instead of a table walk.  ``None``
        #: is the *blackhole* state: no surviving route to the destination.
        self._entry_links: List[Optional[BottleneckLink]] = []
        self.recorder = Recorder(topology.links, self.link, self.flows)
        #: Min-heap of pending ``(time, counter, kind, payload)`` events;
        #: ``_counter`` breaks time ties in push order and doubles as the
        #: number of events ever scheduled.
        self._events: list = []
        self._counter = 0
        self._tick = 0
        #: Sorted flow ids (== positions in ``flows``) of started,
        #: unfinished flows.  Per-tick work scales with this roster, not
        #: with every flow ever created.  The engine is its only writer,
        #: and tells the recorder of every flow it adds or removes.  It
        #: can momentarily hold a flow whose callback stopped it mid-tick:
        #: readers still check ``flow.active``.
        self.roster: List[int] = []
        self._next_flow_id = 0
        #: Flight recorder: ``None`` keeps every emission site to a single
        #: pointer check, so an untraced run is numerically unchanged.
        self.trace_sink: Optional[JsonlTraceSink] = sink_from_env()
        #: Every routing control-plane record, in order (rare events).
        self.route_events: List[dict] = []
        #: Last mode observed per mode-switching flow (trace-only state).
        self._last_modes: Dict[int, str] = {}
        #: ``REPRO_AUDIT`` conservation re-check period in ticks (0 = off).
        self._audit_every = _audit_period_from_env()
        #: Per-link fluid aggregates (see :mod:`repro.simulator.fluid`).
        #: Empty for every network without fluid classes, in which case
        #: the main loop's only extra cost is one truthiness check.
        self._fluid_states: List[FluidLinkState] = []
        #: Largest roster seen (``engine_stats()["roster_peak"]``).
        self._roster_peak = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_flow(self, flow: Flow, start: Optional[float] = None,
                 path: Optional[PathLike] = None, src: Optional[str] = None,
                 dst: Optional[str] = None) -> Flow:
        """Register a flow from node ``src`` to node ``dst``.

        It starts at ``start`` (default ``flow.start_time``).  The
        endpoints default to the first and last node — the whole chain —
        so path-agnostic traffic generators can call ``add_flow(flow)``.
        ``path`` is spelling for "from the tail of the first named link to
        the head of the last" (any :data:`PathLike`).  A flow whose
        destination is unreachable *right now* is accepted in the
        blackhole state and joins the network when a convergence pass
        finds it a route.
        """
        # Resolve (and validate) the endpoints before touching any engine
        # state, so a bad name leaves the engine exactly as it was.
        topology = self.topology
        if path is not None:
            if src is not None or dst is not None:
                raise ValueError("give either path= or src=/dst=, not both")
            positions = topology.resolve_path(path)
            source = topology.link_src[positions[0]]
            target = topology.link_dst[positions[-1]]
        else:
            source = 0 if src is None else topology.node_index(src)
            target = (len(topology.nodes) - 1 if dst is None
                      else topology.node_index(dst))
        if source == target:
            raise ValueError("flow source and destination nodes must differ")
        flow.flow_id = self._next_flow_id
        self._next_flow_id += 1
        self.flows.append(flow)
        self._flow_src.append(source)
        self._flow_dst.append(target)
        route = self.route_of(flow.flow_id)
        self._entry_links.append(route[0] if route else None)
        start_time = flow.start_time if start is None else start
        flow.start_time = start_time
        if start_time <= self.now:
            flow.start(self.now)
            if flow.active:
                self._enroll(flow)
        else:
            self._push(start_time, _START, flow)
        sink = self.trace_sink
        if sink is not None:
            sink.emit({
                "time": self.now, "event": "flow_start",
                "flow_id": flow.flow_id, "flow": flow.name,
                "cc": flow.cc.name,
                "path": [link.name for link in route],
                "start": start_time})
        if not route:
            self.route_event(self._blackhole_record("blackhole_start",
                                                    flow.flow_id))
        return flow

    def route_of(self, flow_id: int) -> Tuple[BottleneckLink, ...]:
        """The links the flow would traverse *right now* (empty when
        blackholed)."""
        route = routing.walk_route(self.topology, self._flow_src[flow_id],
                                   self._flow_dst[flow_id])
        return tuple(self._links[position] for position in route or ())

    def schedule_call(self, time: float, fn: Callable[[float], None]) -> None:
        """Run ``fn(now)`` at the given simulation time (>= now)."""
        self._push(max(time, self.now), _CALL, fn)

    def attach_fluid_class(self, fluid_class: FluidClass,
                           link: Optional[str] = None) -> FluidClass:
        """Attach an aggregate background-traffic class to a link.

        ``link`` names any topology link; ``None`` targets the monitor
        link (the single-bottleneck default).  Class names must be unique
        across the network — telemetry keys on them.
        Each tick the class offers bytes to that link's queue through its
        normal admission policy, shares its service budget in proportion
        to queued bytes, and participates in the conservation audit (see
        :mod:`repro.simulator.fluid`).
        """
        target = self.link if link is None else self.topology.link(link)
        for state in self._fluid_states:
            for existing in state.classes:
                if existing.name == fluid_class.name:
                    raise ValueError(f"duplicate fluid class name "
                                     f"{fluid_class.name!r}")
        state = target.fluid
        if state is None:
            state = target.fluid = FluidLinkState(target)
            self._fluid_states.append(state)
        state.classes.append(fluid_class)
        return fluid_class

    def fluid_classes(self) -> List[FluidClass]:
        """Every attached fluid class, in attachment order."""
        return [cls for state in self._fluid_states
                for cls in state.classes]

    def flush_link_queue(self, name: str) -> float:
        """Drop every byte queued at the named link; returns bytes flushed.

        Used by "drop"-policy link flaps (see
        :mod:`repro.simulator.faults`).  Each affected flow gets one
        aggregated loss-feedback event after the usual remaining-path-plus-
        ACK delay, exactly like an admission drop at that hop, and one
        ``drop`` trace event per flow is emitted.
        """
        position = self.topology.index_of(name)
        link = self._links[position]
        flushed = link.fluid.flush(self.now) if link.fluid is not None else 0.0
        for drop in link.flush(self.now):
            flushed += drop.lost_bytes
            self._feed_back_drops((drop,), position,
                                  self.flows[drop.flow_id], self.now)
        return flushed

    def on_link_down(self, name: str) -> None:
        """Routing hook: the named link stopped carrying traffic.

        Called by :mod:`repro.simulator.faults` when a ``link_flap``
        down-window opens.  With a ``convergence_delay`` this schedules one
        convergence pass that many seconds later (see
        :func:`repro.simulator.routing.convergence_pass`); with ``None``
        routes are frozen and there is nowhere to move traffic.
        """
        self.topology.index_of(name)  # raises on unknown names
        if self.convergence_delay is not None:
            self.schedule_call(self.now + self.convergence_delay,
                               routing.convergence_pass(self))

    def on_link_up(self, name: str) -> None:
        """Routing hook: the named link came back into service."""
        self.on_link_down(name)  # the same reaction: one convergence pass

    def reroute_flows(self) -> None:
        """Re-derive every live flow's entry link and blackhole state from
        the tables (the flow half of a convergence pass), in flow-id order.
        """
        entry_links = self._entry_links
        for flow_id, flow in enumerate(self.flows):
            if flow.finished:
                continue
            route = self.route_of(flow_id)
            entry = route[0] if route else None
            was_blackholed = entry_links[flow_id] is None
            entry_links[flow_id] = entry
            if (entry is None) != was_blackholed:
                self.route_event(self._blackhole_record(
                    "blackhole_end" if was_blackholed else "blackhole_start",
                    flow_id))

    def route_event(self, record: dict) -> None:
        """Log a routing control-plane record and narrate it to the sink."""
        self.route_events.append(record)
        if self.trace_sink is not None:
            self.trace_sink.emit(record)

    def _blackhole_record(self, kind: str, flow_id: int) -> dict:
        nodes = self.topology.nodes
        return {
            "time": self.now, "event": kind,
            "flow_id": flow_id, "flow": self.flows[flow_id].name,
            "node": nodes[self._flow_src[flow_id]],
            "destination": nodes[self._flow_dst[flow_id]]}

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self, until: float) -> None:
        """Advance the simulation until the given absolute time."""
        while self.now < until - _EPS:
            self.step()
        if self.trace_sink is not None:
            self.trace_sink.flush()

    def step(self) -> None:
        """Advance the simulation by one tick."""
        self._tick += 1
        self.now = now = self.now + self.dt
        self._dispatch_events(now)
        self._emit_all(now)
        if self._fluid_states:
            self._fluid_tick(now)
        self._serve_links(now)
        self.recorder.on_tick(now)
        if self.trace_sink is not None:
            self._trace_modes(now)
        if self._audit_every and not self._tick % self._audit_every:
            self.audit_conservation()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _push(self, time: float, kind: int, payload) -> None:
        self._counter += 1
        heappush(self._events, (time, self._counter, kind, payload))

    def _dispatch_events(self, now: float) -> None:
        # A handler's push that is already due joins this same loop; one
        # that raises leaves the undispatched rest in the heap.
        events = self._events
        flows = self.flows
        recorder = self.recorder
        sink = self.trace_sink
        due = now + _EPS
        while events and events[0][0] <= due:
            _, _, kind, payload = heappop(events)
            if kind == _DELIVER:
                # The chunk reaches its receiver: record it, acknowledge it.
                flow = flows[payload.flow_id]
                recorder.on_delivery(flow, payload, now)
                if sink is not None:
                    sink.emit({
                        "time": now, "event": "delivery",
                        "flow_id": payload.flow_id, "flow": flow.name,
                        "bytes": payload.size, "seq": payload.seq,
                        "queue_delay": payload.queue_delay})
                self._counter += 1
                heappush(events, (
                    now + flow.delay_ack, self._counter, _ACK,
                    Ack(payload.flow_id, payload.size, payload.sent_time,
                        payload.queue_delay, now)))
            elif kind == _ACK:
                flow = flows[payload.flow_id]
                if not flow._finished:
                    flow.handle_ack(payload, now)
                    if sink is not None:
                        sink.emit({
                            "time": now, "event": "ack",
                            "flow_id": payload.flow_id,
                            "flow": flow.name,
                            "bytes": payload.acked_bytes,
                            "rtt": now - payload.sent_time,
                            "queue_delay": payload.queue_delay})
                    if flow._finished:
                        self._deactivate(flow.flow_id)
            elif kind == _HOP:
                self._forward(payload, now)
            elif kind == _LOSS:
                flow = flows[payload.flow_id]
                if not flow._finished:
                    flow.handle_loss(payload.lost_bytes, now)
                    if sink is not None:
                        sink.emit({
                            "time": now, "event": "loss",
                            "flow_id": payload.flow_id,
                            "flow": flow.name,
                            "bytes": payload.lost_bytes})
            elif kind == _CALL:
                payload(now)
            elif kind == _START:
                payload.start(now)
                if payload.active:
                    self._enroll(payload)

    def _enroll(self, flow: Flow) -> None:
        """Put a flow that has just started on the roster."""
        insort(self.roster, flow.flow_id)
        if len(self.roster) > self._roster_peak:
            self._roster_peak = len(self.roster)
        self.recorder.on_start(flow)

    def _deactivate(self, flow_id: int) -> None:
        """Take a finished flow off the roster and tell the recorder."""
        index = bisect_left(self.roster, flow_id)
        if index < len(self.roster) and self.roster[index] == flow_id:
            del self.roster[index]
            flow = self.flows[flow_id]
            self.recorder.on_finish(flow)
            if self.trace_sink is not None:
                self.trace_sink.emit({
                    "time": self.now, "event": "flow_finish",
                    "flow_id": flow_id, "flow": flow.name,
                    "fct": flow.fct})

    def _forward(self, chunk: Chunk, now: float) -> None:
        """Chunk arrives at node ``chunk.hop``: forward by table lookup.

        No surviving next hop at the node means the chunk is dropped on
        the spot and surfaces as loss feedback at the sender (graceful
        degradation for traffic already in flight when a route died).
        ``queue_delay`` keeps accumulating across hops because every link
        adds its own waiting time to the same chunk field.
        """
        flow_id = chunk.flow_id
        flow = self.flows[flow_id]
        node = chunk.hop
        position = self.topology.next_hop[node][self._flow_dst[flow_id]]
        if position is None:
            self._push(now + flow.delay_to_receiver + flow.delay_ack, _LOSS,
                       DropRecord(flow_id, chunk.size, now))
            return
        link = self._links[position]
        sink = self.trace_sink
        if sink is not None:
            sink.emit({
                "time": now, "event": "hop",
                "flow_id": flow_id, "flow": flow.name,
                "link": link.name, "hop": node,
                "bytes": chunk.size, "seq": chunk.seq})
        drops = link.enqueue(chunk, now)
        if drops:
            self._feed_back_drops(drops, position, flow, now)

    def _feed_back_drops(self, drops: Sequence[DropRecord], position: int,
                         flow: Flow, now: float) -> None:
        """Report bytes of ``flow`` dropped at link ``position`` to its sender.

        The loss surfaces after the remaining downstream propagation
        (carried by the packets behind the hole; the final link's wire is
        the flow's own receiver leg) plus the receiver leg and the ACK
        path; queueing on the way is ignored.
        """
        delay = (routing.residual_delay(self.topology, position,
                                        self._flow_dst[flow.flow_id])
                 + flow.delay_to_receiver + flow.delay_ack)
        for drop in drops:
            self._push(now + delay, _LOSS, drop)
        sink = self.trace_sink
        if sink is not None:
            link = self._links[position]
            for drop in drops:
                sink.emit({
                    "time": now, "event": "drop",
                    "flow_id": drop.flow_id, "flow": flow.name,
                    "link": link.name,
                    "hop": self.topology.link_src[position],
                    "bytes": drop.lost_bytes})

    def _emit_all(self, now: float) -> None:
        # Rotate the service order every tick so that when the buffer is
        # nearly full the tail-drop losses are shared across flows, as they
        # would be with interleaved packets, instead of always falling on
        # the flows that happen to be listed last.  The rotation point is
        # still computed over every flow ever added, so the visit order of
        # the surviving active flows matches the historical full scan.
        active = self.roster
        if not active:
            return
        flows = self.flows
        dt = self.dt
        entry_links = self._entry_links
        sink = self.trace_sink
        start = int(round(now / dt)) % len(flows)
        pivot = bisect_left(active, start)
        stale = None
        for flow_id in active[pivot:] + active[:pivot]:
            flow = flows[flow_id]
            if flow._waiting:
                continue  # only feedback can give it budget (endpoint.py)
            if not flow._started or flow._finished:
                # Stopped from a callback; drop it from the roster lazily.
                if stale is None:
                    stale = [flow_id]
                else:
                    stale.append(flow_id)
                continue
            chunk = flow.emit(now, dt)
            if chunk is None:
                continue
            link = entry_links[flow_id]
            if link is None:
                # Blackholed: the bytes leave the sender and vanish; the
                # sender learns via loss feedback one receiver-plus-ACK
                # delay later.  No queue is touched, so conservation holds.
                self._push(now + flow.delay_to_receiver + flow.delay_ack,
                           _LOSS, DropRecord(flow_id, chunk.size, now))
                continue
            if sink is not None:
                # Before admission: ``enqueue`` records the offered bytes
                # (the policy may trim ``chunk.size`` down to the admitted
                # remainder, which the paired ``drop`` event accounts for).
                sink.emit({
                    "time": now, "event": "enqueue",
                    "flow_id": flow_id, "flow": flow.name,
                    "link": link.name, "hop": self._flow_src[flow_id],
                    "bytes": chunk.size, "seq": chunk.seq})
            drops = link.enqueue(chunk, now)
            if drops:
                self._feed_back_drops(
                    drops, self.topology.next_hop[self._flow_src[flow_id]][
                        self._flow_dst[flow_id]], flow, now)
        if stale is not None:
            for flow_id in stale:
                self._deactivate(flow_id)

    def _fluid_tick(self, now: float) -> None:
        """Offer every fluid class's per-tick demand to its link's queue.

        Runs between flow emission and link service — the fluid analogue
        of ``_emit_all`` — so fluid bytes compete with tracked flows'
        chunks for the same admission decision and the same service
        budget within a tick.
        """
        dt = self.dt
        for state in self._fluid_states:
            link = state.link
            refuse = not link.up and link._refuse_arrivals
            policy = link.policy
            capacity = link.capacity
            # Chunks emitted earlier in this same tick already claimed
            # queue space; admit the fluid against the start-of-tick
            # queue instead, so both halves of the traffic compete for
            # the same freed space and a full buffer's overflow lands on
            # both in proportion — not all on whoever enqueues last.
            queued_base = link.queue_bytes - state.tick_admitted
            if queued_base < 0.0:
                queued_base = 0.0
            state.tick_admitted = 0.0
            chunk_arrivals = state.tick_offered
            state.tick_offered = 0.0
            state.loss_debt = 0.0
            for cls in state.classes:
                offered = cls.offer(now, dt, link.queue_delay)
                if offered <= 0.0:
                    continue
                if refuse:
                    admitted = 0.0
                else:
                    queued = queued_base + state.backlog
                    admitted = policy.admit(offered, queued,
                                            queued / capacity, now)
                    admitted = admitted if admitted < offered else offered
                    admitted = admitted if admitted > 0.0 else 0.0
                    lost = offered - admitted
                    if lost > 1e-9 and chunk_arrivals > 0.0:
                        # In an interleaved FIFO each dropped packet of
                        # this overflow belongs to the packet side with
                        # probability equal to its arrival share.  Sample
                        # that per lost packet (not spread byte-wise:
                        # a loss-event of any size costs a tracked flow a
                        # full multiplicative decrease, so incidence must
                        # match, not just byte volume) and charge the
                        # sampled bytes to the next arriving chunks via
                        # the link's loss debt; the fluid keeps the rest,
                        # requeueing what it no longer owns.
                        transfer = cls.sample_overflow_transfer(
                            lost, chunk_arrivals
                            / (chunk_arrivals + offered))
                        if transfer > 0.0:
                            state.loss_debt += transfer
                            admitted += transfer
                cls.commit(offered, admitted, now)
        sink = self.trace_sink
        if sink is not None and not self._tick % _FLUID_TRACE_TICKS:
            for state in self._fluid_states:
                link_name = state.link.name
                for cls in state.classes:
                    sink.emit({
                        "time": now, "event": "fluid_sample",
                        "link": link_name, "class": cls.name,
                        "kind": cls.kind,
                        "offered": cls.total_offered,
                        "served": cls.total_served,
                        "dropped": cls.total_dropped,
                        "backlog": cls.backlog,
                        "rate": cls.current_rate,
                        "flows": cls.active_flows})

    def _serve_links(self, now: float) -> None:
        # ``service`` schedules nothing, so the event counter is carried in
        # a local and stored once per served link.
        events = self._events
        flows = self.flows
        flow_dst = self._flow_dst
        link_dst = self.topology.link_dst
        delays = self.topology.delays
        dt = self.dt
        for position, link in enumerate(self._links):
            served = link.service(now, dt)
            if not served:
                continue
            arrival = link_dst[position]
            hop_time = now + delays[position]
            counter = self._counter
            for chunk in served:
                flow_id = chunk.flow_id
                counter += 1
                if arrival == flow_dst[flow_id]:
                    heappush(events, (now + flows[flow_id].delay_to_receiver,
                                      counter, _DELIVER, chunk))
                else:
                    chunk.hop = arrival
                    heappush(events, (hop_time, counter, _HOP, chunk))
            self._counter = counter

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    def _trace_modes(self, now: float) -> None:
        """Emit ``mode_change`` events for mode-switching flows.

        Polled once per tick (trace-enabled runs only), so a switch is
        recorded within one tick of the estimator flipping it.  The first
        observation of a flow's mode is emitted with ``from_mode: null``,
        recording the starting mode.
        """
        sink = self.trace_sink
        flows = self.flows
        modes = self._last_modes
        for flow_id in self.roster:
            flow = flows[flow_id]
            if flow._finished:
                continue  # stopped from a callback: its controller is gone
            mode = flow.cc.mode
            if mode is not None and mode != modes.get(flow_id):
                previous = modes.get(flow_id)
                modes[flow_id] = mode
                sink.emit({
                    "time": now, "event": "mode_change",
                    "flow_id": flow_id, "flow": flow.name,
                    "mode": mode, "from_mode": previous})

    def engine_stats(self) -> Dict[str, float]:
        """Counters exposing the engine's internals.

        ``events_executed`` is ``events_scheduled - events_pending``: every
        event ever pushed has either popped off the heap or is still on it,
        so the conservation law holds by construction.
        """
        pending = len(self._events)
        return {
            "ticks": self._tick,
            "now": self.now,
            "events_scheduled": self._counter,
            "events_executed": self._counter - pending,
            "events_pending": pending,
            # Always 0: the engine has no calendar buckets or spill heap,
            # but benchmarks/e2e/spans.py still sums and peaks these keys.
            "calendar_buckets_created": 0,
            "spill_peak": 0,
            "roster_size": len(self.roster),
            "roster_peak": self._roster_peak,
            "flows": len(self.flows),
            "fluid_classes": sum(len(state.classes)
                                 for state in self._fluid_states),
        }

    def audit_conservation(self) -> None:
        """Re-check the per-hop conservation law on every link.

        ``total_offered == total_served + queue_bytes + total_drops`` must
        hold at each hop up to float-summation residue.  A link with fluid
        classes attached extends both sides with the fluid aggregate's
        counters (offered / served / backlog / dropped), so aggregated
        background traffic is held to the same law as chunk traffic.
        Runs every ``REPRO_AUDIT`` ticks when that mode is on; raises
        :class:`AuditError` naming the first violating link.
        """
        for link in self._links:
            offered = link.total_offered
            balance = link.total_served + link.queue_bytes + link.total_drops
            fluid = link.fluid
            if fluid is not None:
                for cls in fluid.classes:
                    offered += cls.total_offered
                    balance += (cls.total_served + cls.backlog
                                + cls.total_dropped)
            residue = abs(offered - balance)
            if residue > 1e-6 + 1e-10 * offered:
                raise AuditError(
                    f"conservation violated at link {link.name!r} "
                    f"(tick {self._tick}, t={self.now:.6f}): "
                    f"offered={offered!r} != "
                    f"served={link.total_served!r} + "
                    f"queued={link.queue_bytes!r} + "
                    f"dropped={link.total_drops!r} "
                    f"(fluid terms included; residue {residue:.3g})")

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(topology={self.topology!r}, "
                f"dt={self.dt}, flows={len(self.flows)})")
