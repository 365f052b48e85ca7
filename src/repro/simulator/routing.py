"""Forwarding-table maths: shortest-path routes, route walks, reroute.

A :class:`~repro.simulator.topology.Topology` keeps two tables indexed
``[node][destination]``: ``candidates`` — the ordered link positions a node
may use toward a destination (primary first, then backups in failover
order) — and ``next_hop`` — the *active* choice every chunk follows.  This
module owns how those tables are filled (:func:`compute_routes`), how
they are read along a whole route
(:func:`walk_route`, :func:`residual_delay`), and how they react to link
failure (:func:`convergence_pass`).

Failure model (all deterministic — no RNG anywhere):

* When :mod:`repro.simulator.faults` opens a ``link_flap`` down-window it
  calls the engine's ``on_link_down``, which — on a network built with a
  ``convergence_delay`` — schedules one *convergence pass* that many
  seconds later via the engine's own ``schedule_call``, modelling the
  detection/update lag of a real routing protocol.  The pass re-resolves
  every table entry to its first candidate whose link is up, logging one
  ``route_change`` record per entry that actually moved (the engine's
  ``route_event``: its ``route_events`` list, and the trace sink if any).
* Until convergence, traffic keeps hitting the dead link and is handled
  by the *existing* queue policy: a drain-flap freezes the queue, a
  drop-flap blackholes arrivals into loss feedback (both preserve the
  per-hop conservation law, so ``REPRO_AUDIT`` passes mid-reroute).
* A flow whose destination has no surviving route — every candidate at
  some node on the way is down — enters an explicit *blackhole* state
  (``blackhole_start``): its emissions never enter a queue and surface as
  loss feedback one receiver-plus-ACK delay later.  ``fault_end`` brings
  the link back, the next convergence pass restores the route, and the
  flow leaves the state (``blackhole_end``).
* A chunk already in flight toward a node that has lost its next hop is
  dropped at that node and reported to the sender the same way.

Convergence passes are scheduled and executed inside the event heap,
so with identical seeds and specs the ``route_change`` event sequence is
bit-identical across serial, pooled, and isolated-process execution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .topology import Topology, TopologyNetwork


def compute_routes(topology: "Topology") -> None:
    """Fill every table from shortest paths (BFS, deterministic).

    For each destination, every node that can reach it gets all of its
    usable outgoing links as candidates, ordered by (hop count through
    that link, link position) — so the primary is a shortest-path next
    hop and ties break on attachment order.
    """
    link_src, link_dst = topology.link_src, topology.link_dst
    count = len(topology.nodes)
    outgoing: List[List[int]] = [[] for _ in range(count)]
    for position, source in enumerate(link_src):
        outgoing[source].append(position)
    incoming: List[List[int]] = [[] for _ in range(count)]
    for position, target in enumerate(link_dst):
        incoming[target].append(position)
    for destination in range(count):
        # Reverse BFS from the destination: dist[n] = hops n -> dst.
        dist = {destination: 0}
        frontier = [destination]
        while frontier:
            next_frontier = []
            for node in frontier:
                for position in incoming[node]:
                    source = link_src[position]
                    if source not in dist:
                        dist[source] = dist[node] + 1
                        next_frontier.append(source)
            frontier = next_frontier
        for node in range(count):
            usable = () if node == destination else tuple(sorted(
                (position for position in outgoing[node]
                 if link_dst[position] in dist),
                key=lambda p: (dist[link_dst[p]] + 1, p)))
            topology.candidates[node][destination] = usable
            # Links are up when routes are laid down; faults only strike
            # later (they arm through schedule_call), so the primary
            # starts active.
            topology.next_hop[node][destination] = \
                usable[0] if usable else None


def walk_route(topology: "Topology", source: int,
               destination: int) -> Optional[Tuple[int, ...]]:
    """Follow the active choices source → destination; ``None`` if the
    walk dead-ends or loops before reaching the destination."""
    next_hop, link_dst = topology.next_hop, topology.link_dst
    positions = []
    node = source
    visited = set()
    while node != destination:
        if node in visited:
            return None
        visited.add(node)
        position = next_hop[node][destination]
        if position is None:
            return None
        positions.append(position)
        node = link_dst[position]
    return tuple(positions)


def residual_delay(topology: "Topology", position: int,
                   destination: int) -> float:
    """Wire delay from link ``position`` to the destination, excluding
    the final hop's (whose wire is the flow's ``delay_to_receiver``).

    A walk that dead-ends or loops stops accumulating there (the hole
    surfaces with whatever downstream delay was accounted so far).
    """
    next_hop, link_dst = topology.next_hop, topology.link_dst
    delays = topology.delays
    extra = 0.0
    visited = set()
    while link_dst[position] != destination:
        extra += delays[position]
        node = link_dst[position]
        if node in visited:
            break
        visited.add(node)
        follow = next_hop[node][destination]
        if follow is None:
            break
        position = follow
    return extra


def convergence_pass(network: "TopologyNetwork") -> Callable[[float], None]:
    """The callback one link-state change schedules on ``network``.

    It re-resolves every table entry to its first candidate whose link is
    up, then lets the engine re-derive each flow's entry link and blackhole
    state.  Idempotent — a pass that finds nothing changed emits nothing —
    so the one-pass-per-link-event scheduling never double-reports.
    Iteration order (nodes by index, destinations sorted by name, flows by
    id) is fixed, making the ``route_change`` sequence deterministic.
    """
    def converge(now: float) -> None:
        topology = network.topology
        links, names = topology.links, topology.nodes
        by_name = sorted(range(len(names)), key=names.__getitem__)
        for node, (candidates, active) in enumerate(
                zip(topology.candidates, topology.next_hop)):
            for destination in by_name:
                resolved = next((position
                                 for position in candidates[destination]
                                 if links[position].up), None)
                previous = active[destination]
                if resolved != previous:
                    active[destination] = resolved
                    network.route_event({
                        "time": now, "event": "route_change",
                        "node": names[node],
                        "destination": names[destination],
                        "from_link": None if previous is None
                        else links[previous].name,
                        "to_link": None if resolved is None
                        else links[resolved].name})
        network.reroute_flows()
    return converge
