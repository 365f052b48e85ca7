"""Factories that turn scenario parameters into simulator objects.

They sit in the runtime layer so that scenario execution (and anything
else below the driver layer) can build networks and schemes without
importing the experiments package.

One builder, :func:`make_multihop_network`, takes everything a network
is described by — links, fault windows, fluid classes — and
:func:`make_network` is its one-link shorthand.  Each description exists
once: links and fluid classes are the frozen ``*Spec``
dataclasses below (driver units: Mbit/s, milliseconds); a fault window is
the simulator's own :class:`~repro.simulator.faults.FaultEvent` (engine
units: seconds), which is already a frozen dataclass of scalars and so
canonicalises into a :class:`~repro.runtime.spec.ScenarioSpec` as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from ..cc import BasicDelay, Bbr, Copa, Cubic, Vegas
from ..cc.base import CongestionControl
from ..core.nimbus import Nimbus
from ..simulator import (
    DropTail,
    FaultEvent,
    FaultSchedule,
    FluidClass,
    Pie,
    Topology,
    TopologyNetwork,
    mbps_to_bytes_per_sec,
)


@dataclass(frozen=True)
class LinkSpec:
    """Declarative description of one directed link of a topology.

    A plain frozen dataclass with init-only scalar fields, so it
    canonicalises into a :class:`~repro.runtime.spec.ScenarioSpec` — multi-
    hop scenario parameters hash, cache, and batch exactly like single-link
    ones.

    Attributes:
        name: Link label, unique within the topology.
        mbps: Link rate in Mbit/s.
        delay_ms: Propagation delay from this link to the node it ends at
            (ignored for the last hop of a route, where the flow's own
            ``prop_rtt`` supplies the receiver and ACK legs).
        buffer_ms: Queue depth in milliseconds at this link's rate.
        aqm_target_ms: Switch the hop's queue policy from drop-tail to PIE
            with this target delay.
        src / dst: Endpoint node names (nodes are created on first
            appearance, in declaration order).  ``None`` chains the link
            onto the previous one / ends it at a fresh node, so a tuple of
            endpoint-less specs is a chain.
    """

    name: str
    mbps: float
    delay_ms: float = 0.0
    buffer_ms: float = 100.0
    aqm_target_ms: Optional[float] = None
    src: Optional[str] = None
    dst: Optional[str] = None


@dataclass(frozen=True)
class FluidClassSpec:
    """Declarative description of one fluid-aggregate cross-traffic class.

    The :class:`LinkSpec` sibling for
    :class:`~repro.simulator.fluid.FluidClass`: frozen with init-only
    scalar fields, so a tuple of these canonicalises into a
    :class:`~repro.runtime.spec.ScenarioSpec` and fluid scenarios hash,
    cache, and batch like any other.  Rates are driver units (Mbit/s,
    milliseconds); byte-domain conversion happens at build time against
    the target link's capacity.

    Attributes:
        name: Class label, unique per network.
        kind: ``"elastic"`` or ``"inelastic"``.
        link: Name of the link the class loads; ``None`` targets the
            monitor link.
        load: Target offered load as a fraction of the link rate
            (ignored when ``rate_mbps`` is given).
        rate_mbps: Explicit target offered rate in Mbit/s.
        rtt_ms: Propagation RTT of the member flows in milliseconds.
        flows: ``> 0`` makes an elastic class a fixed population of this
            many long-running backlogged flows (no arrivals).
        arrivals_per_sec: Poisson flow-arrival rate; sampled flow sizes
            are rescaled so offered load stays at the target while the
            flow count scales freely.
        seed: Seed of the class's private generator.
    """

    name: str
    kind: str = "elastic"
    link: Optional[str] = None
    load: float = 0.5
    rate_mbps: Optional[float] = None
    rtt_ms: float = 50.0
    flows: int = 0
    arrivals_per_sec: Optional[float] = None
    seed: int = 1


def flap_fault_specs(link: str, period: float, duty: float, until: float,
                     depth: float = 1.0, start: Optional[float] = None,
                     drop_queued: bool = False) -> tuple:
    """Periodic fault windows for a flapping link.

    Each ``period`` the link degrades for ``duty * period`` seconds: fully
    down (``link_flap``) when ``depth >= 1``, else a ``capacity_dip`` to
    ``1 - depth`` of its rate.  The first window opens after one healthy
    up-phase (or at ``start``); windows are generated while they begin
    before ``until``.
    """
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    if not 0.0 < duty < 1.0:
        raise ValueError(f"duty must be in (0, 1), got {duty}")
    if not 0.0 < depth <= 1.0:
        raise ValueError(f"depth must be in (0, 1], got {depth}")
    down = duty * period
    first = (period - down) if start is None else start
    faults = []
    begin = first
    while begin < until:
        if depth >= 1.0:
            faults.append(FaultEvent("link_flap", link, begin, down,
                                     drop_queued=bool(drop_queued)))
        else:
            faults.append(FaultEvent("capacity_dip", link, begin, down,
                                     factor=1.0 - depth))
        begin += period
    return tuple(faults)


def _policy_for(mu: float, buffer_ms: float,
                aqm_target_ms: Optional[float], seed: int):
    buffer_bytes = mu * buffer_ms / 1e3
    if aqm_target_ms is not None:
        return Pie(target_delay=aqm_target_ms / 1e3,
                   buffer_bytes=buffer_bytes, seed=seed)
    return DropTail(buffer_bytes)


def make_topology(links: Sequence[LinkSpec], monitor: Optional[str] = None,
                  seed: int = 0) -> Topology:
    """Wire :class:`LinkSpec` descriptions into a :class:`Topology`.

    Forwarding tables come from shortest paths, so backups fall out of the
    graph automatically.  The
    monitor link (what ``network.link`` and the recorder observe) defaults
    to the narrowest link — the natural bottleneck — with ties going to
    the earliest one.
    """
    if not links:
        raise ValueError("make_topology needs at least one LinkSpec")
    topology = Topology(name="+".join(spec.name for spec in links))
    for position, spec in enumerate(links):
        for node in (spec.src, spec.dst):
            if node is not None and node not in topology.nodes:
                topology.add_node(node)
        mu = mbps_to_bytes_per_sec(spec.mbps)
        # Each hop's policy gets its own RNG stream: identical seeds would
        # perfectly correlate the random drop decisions of stacked AQMs.
        topology.add_link(spec.name, mu, delay=spec.delay_ms / 1e3,
                          policy=_policy_for(mu, spec.buffer_ms,
                                             spec.aqm_target_ms,
                                             seed + position),
                          src=spec.src, dst=spec.dst)
    if monitor is None:
        monitor = min(links, key=lambda spec: spec.mbps).name
    topology.set_monitor(monitor)
    return topology


def make_multihop_network(links: Sequence[LinkSpec], dt: float = 0.002,
                          seed: int = 0, monitor: Optional[str] = None,
                          faults: Sequence[FaultEvent] = (),
                          fluid: Sequence[FluidClassSpec] = (),
                          convergence_ms: Optional[float] = None
                          ) -> TopologyNetwork:
    """A :class:`TopologyNetwork` over the described links.

    Flows may traverse any route over the named nodes and links.  Any
    ``faults`` are armed and ``fluid`` classes attached on the fresh
    network; empty sequences leave the engine untouched — bit-identical
    to a build without the parameters.  ``seed`` reaches the one random
    draw the build makes, each hop's AQM (``seed + position``); a fluid
    class carries its own ``seed``, and neither the engine nor a fault
    draws anything.
    ``faults`` are :class:`~repro.simulator.faults.FaultEvent` windows as
    they are (frozen scalar dataclasses, so they canonicalise into a
    :class:`~repro.runtime.spec.ScenarioSpec` like a :class:`LinkSpec`):
    engine units, so their times are in *seconds* where every ``*_ms``
    field of this module is in milliseconds.
    ``convergence_ms`` is the reroute convergence delay in milliseconds —
    the lag between a link-state change and the tables re-resolving, so
    an armed ``link_flap`` triggers failover onto the backups; the default
    ``None`` freezes the routes and a flap is a dead end.
    """
    network = TopologyNetwork(
        make_topology(links, monitor=monitor, seed=seed),
        dt=dt,
        convergence_delay=(None if convergence_ms is None
                           else convergence_ms / 1e3))
    if faults:
        FaultSchedule(faults).apply(network)
    for spec in fluid:
        link = (network.topology.link(spec.link)
                if spec.link is not None else network.link)
        network.attach_fluid_class(
            FluidClass(
                spec.name, link.capacity, kind=spec.kind, load=spec.load,
                rate=(mbps_to_bytes_per_sec(spec.rate_mbps)
                      if spec.rate_mbps is not None else None),
                rtt=spec.rtt_ms / 1e3, flows=spec.flows,
                arrivals_per_sec=spec.arrivals_per_sec, seed=spec.seed),
            link=spec.link)
    return network


def make_network(link_mbps: float, buffer_ms: float = 100.0,
                 dt: float = 0.002, seed: int = 0,
                 aqm_target_ms: Optional[float] = None,
                 fluid: Sequence[FluidClassSpec] = ()) -> TopologyNetwork:
    """Standard single-bottleneck network used across experiments.

    ``aqm_target_ms`` switches the queue policy from drop-tail to PIE with
    the given target delay (Appendix E.2).  ``fluid`` attaches aggregate
    background-traffic classes to the bottleneck; the default empty
    sequence is bit-identical to a build without the parameter.
    """
    return make_multihop_network(
        (LinkSpec("bottleneck", link_mbps, buffer_ms=buffer_ms,
                  aqm_target_ms=aqm_target_ms),),
        dt=dt, seed=seed, fluid=fluid)


def make_scheme(name: str, mu: float, **overrides) -> CongestionControl:
    """Instantiate a congestion-control scheme by name.

    The names are the ones a driver, manifest or CI step passes as a
    scheme: ``nimbus`` (Cubic + BasicDelay), ``basicdelay`` (the delay
    algorithm alone, no mode switching), ``cubic``, ``vegas``, ``copa`` and
    ``bbr``.  Any other composition — Nimbus over another delay algorithm,
    a scheme only a test runs — is built from its classes directly.
    """
    factories: Dict[str, Callable[[], CongestionControl]] = {
        "nimbus": lambda: Nimbus(mu=mu, **overrides),
        "basicdelay": lambda: BasicDelay(mu, **overrides),
        "cubic": lambda: Cubic(**overrides),
        "vegas": lambda: Vegas(**overrides),
        "copa": lambda: Copa(**overrides),
        "bbr": lambda: Bbr(**overrides),
    }
    try:
        return factories[name]()
    except KeyError:
        raise ValueError(f"unknown scheme {name!r}; known: {sorted(factories)}")
