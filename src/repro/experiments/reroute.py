"""Reroute chaos experiment: classification accuracy under failover.

A primary/backup two-path topology — source ``S`` reaches the midpoint
``M`` over a fast ``primary`` link (flapped) or a slower ``backup`` link,
then a shared ``bottleneck`` (the monitor) carries everything to ``D``::

            primary (96M, flapped)
        S ========================= M --- bottleneck (48M) --- D
            backup (64M)

Both the main flow and the scripted elastic/inelastic cross traffic are
destination-routed S → D, so when the chaos layer drops ``primary`` the
convergence pass moves *everyone* onto ``backup`` after ``convergence_ms``
— traffic survives the flap instead of blackholing, at a different
access rate and wire delay.  The question is whether mode-switching
schemes (Nimbus, Copa) still classify the cross traffic correctly while
its path — and therefore its arrival pattern at the bottleneck — keeps
moving under them, as a function of flap ``period`` × ``convergence_ms``.

Every payload also carries the ordered control-plane event sequence
(``route_change`` / ``blackhole_start`` / ``blackhole_end``), read from
the engine's ``route_events`` log — no trace sink is attached, so a traced
and an untraced run give the same payload.  The sequence is deterministic
for a given spec and seed across serial, pooled, and isolated-process
execution (see ``tests/test_routing.py``).

Sweep axes are plain numerics; ``benchmarks/campaigns/reroute.toml``
sweeps ``period`` × ``convergence_ms`` as a campaign manifest::

    python -m repro.experiments.runner reroute --duration 60
    repro-campaign run benchmarks/campaigns/reroute.toml --out runs/reroute
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..runtime import flap_fault_specs
from ..simulator import Flow, mbps_to_bytes_per_sec
from ..traffic import ScriptedCrossTraffic
from .common import (
    MAIN_FLOW,
    ExperimentResult,
    LinkSpec,
    make_multihop_network,
    make_scheme,
    run_cases,
    scripted_case_payload,
)
from .link_flap import build_phases

DEFAULT_SCHEMES = ("nimbus", "copa", "cubic")


def two_path_links(link_mbps: float = 48.0, primary_mbps: float = 96.0,
                   backup_mbps: float = 64.0, primary_delay_ms: float = 10.0,
                   backup_delay_ms: float = 20.0, buffer_ms: float = 100.0
                   ) -> Tuple[LinkSpec, ...]:
    """The primary/backup two-path topology as declarative link specs."""
    return (LinkSpec("primary", primary_mbps, delay_ms=primary_delay_ms,
                     buffer_ms=buffer_ms, src="S", dst="M"),
            LinkSpec("backup", backup_mbps, delay_ms=backup_delay_ms,
                     buffer_ms=buffer_ms, src="S", dst="M"),
            LinkSpec("bottleneck", link_mbps, buffer_ms=buffer_ms,
                     src="M", dst="D"))


def _blackhole_seconds(events: List[dict], duration: float) -> float:
    """Total blackholed seconds of the main flow, from its event pairs."""
    total = 0.0
    opened: Optional[float] = None
    for record in events:
        if record.get("flow") != MAIN_FLOW:
            continue
        if record["event"] == "blackhole_start" and opened is None:
            opened = record["time"]
        elif record["event"] == "blackhole_end" and opened is not None:
            total += record["time"] - opened
            opened = None
    if opened is not None:
        total += duration - opened
    return total


def run_case(scheme: str = "nimbus", period: float = 8.0,
             convergence_ms: float = 50.0, duty: float = 0.25,
             drop_queued: int = 1, link_mbps: float = 48.0,
             primary_mbps: float = 96.0, backup_mbps: float = 64.0,
             primary_delay_ms: float = 10.0, backup_delay_ms: float = 20.0,
             buffer_ms: float = 100.0, prop_rtt: float = 0.05,
             phase_duration: float = 15.0, inelastic_mbps: float = 24.0,
             elastic_flows: int = 1, duration: float = 60.0,
             dt: float = 0.002, seed: int = 0) -> dict:
    """One scheme over the failing-over two-path topology (batch unit)."""
    links = two_path_links(link_mbps=link_mbps, primary_mbps=primary_mbps,
                           backup_mbps=backup_mbps,
                           primary_delay_ms=primary_delay_ms,
                           backup_delay_ms=backup_delay_ms,
                           buffer_ms=buffer_ms)
    faults = flap_fault_specs("primary", period=period, duty=duty,
                              until=duration, drop_queued=bool(drop_queued))
    network = make_multihop_network(links, dt=dt, seed=seed,
                                    monitor="bottleneck", faults=faults,
                                    convergence_ms=convergence_ms)
    mu = mbps_to_bytes_per_sec(link_mbps)
    network.add_flow(Flow(cc=make_scheme(scheme, mu), prop_rtt=prop_rtt,
                          name=MAIN_FLOW), src="S", dst="D")
    cross = ScriptedCrossTraffic(
        network=network,
        phases=build_phases(duration, phase_duration, inelastic_mbps,
                            elastic_flows),
        prop_rtt=prop_rtt, seed=seed + 7)
    cross.install()
    network.run(duration)

    route_events = network.route_events
    route_changes = sum(1 for record in route_events
                        if record["event"] == "route_change")
    return scripted_case_payload(
        network, cross, scheme, link_mbps, duration, len(faults),
        extra={"route_changes": route_changes,
               "blackhole_seconds": _blackhole_seconds(route_events,
                                                       duration),
               "convergence_ms": convergence_ms},
        data={"route_events": route_events})


def run(schemes: Iterable[str] = DEFAULT_SCHEMES,
        **params) -> ExperimentResult:
    """Run every scheme over the same failing-over topology as one batch."""
    result = ExperimentResult(name="reroute")
    run_cases(run_case, [dict(scheme=scheme) for scheme in schemes], result,
              **params)
    return result
