"""Link-flap chaos experiment: classification accuracy on a faulty path.

A two-hop chain — a ``wan`` hop at twice the bottleneck rate, then the
``bottleneck`` the recorder monitors — carries the main flow plus scripted
cross traffic that alternates between inelastic (Poisson) and elastic
(Cubic) phases.  A deterministic :class:`~repro.simulator.faults.
FaultSchedule` flaps the ``wan`` hop with configurable ``period``,
``depth``, and ``duty`` cycle: at ``depth`` 1 the hop goes fully down
each window, at smaller depths its capacity dips to ``1 - depth`` of
nominal — deep dips migrate the real bottleneck onto the faulted hop
mid-run.  The question, as in Figure 8 but under injected faults, is
whether mode-switching schemes (Nimbus, Copa) still classify the cross
traffic correctly while the path misbehaves.

All sweep axes are plain numerics, so the chaos grid is a campaign
manifest's ``[experiment.axes]`` (``period = [4, 8, 16]``, ``depth =
[0.5, 1]``; ``benchmarks/campaigns/smoke.toml`` has one) and batches and
caches like any other experiment::

    python -m repro.experiments.runner link_flap --duration 60
    repro-campaign run benchmarks/campaigns/smoke.toml --out runs/smoke
"""

from __future__ import annotations

from typing import Iterable

from ..runtime import flap_fault_specs
from ..simulator import Flow, mbps_to_bytes_per_sec
from ..traffic import Phase, ScriptedCrossTraffic
from .common import (
    MAIN_FLOW,
    ExperimentResult,
    LinkSpec,
    make_multihop_network,
    make_scheme,
    run_cases,
    scripted_case_payload,
)

#: Mode-switching schemes by default: accuracy under faults is the point.
DEFAULT_SCHEMES = ("nimbus", "copa", "cubic")


def build_phases(duration: float, phase_duration: float,
                 inelastic_mbps: float, elastic_flows: int) -> list:
    """Alternate inelastic and elastic phases until ``duration`` is covered.

    Starts inelastic, so the detector's ground truth flips on every
    boundary — the hardest schedule to track while links flap.
    """
    phases = []
    elapsed = 0.0
    elastic = False
    while elapsed < duration:
        if elastic:
            phases.append(Phase(duration=phase_duration,
                                elastic_flows=int(elastic_flows)))
        else:
            phases.append(Phase(
                duration=phase_duration,
                inelastic_rate=mbps_to_bytes_per_sec(inelastic_mbps)))
        elastic = not elastic
        elapsed += phase_duration
    return phases


def run_case(scheme: str = "nimbus", period: float = 8.0, depth: float = 1.0,
             duty: float = 0.25, drop_queued: int = 0,
             link_mbps: float = 48.0, wan_mbps: float = 96.0,
             hop_delay_ms: float = 10.0, buffer_ms: float = 100.0,
             prop_rtt: float = 0.05, phase_duration: float = 15.0,
             inelastic_mbps: float = 24.0, elastic_flows: int = 1,
             duration: float = 60.0, dt: float = 0.002,
             seed: int = 0) -> dict:
    """One scheme over the flapping chain, reduced to a picklable payload.

    The batch unit behind :func:`run`.  Faults are derived inside the case
    from the numeric axes (``period``/``depth``/``duty``/``drop_queued``),
    keeping the spec parameters sweepable from the runner command line.
    """
    links = (LinkSpec("wan", wan_mbps, delay_ms=hop_delay_ms,
                      buffer_ms=buffer_ms),
             LinkSpec("bottleneck", link_mbps, buffer_ms=buffer_ms))
    faults = flap_fault_specs("wan", period=period, duty=duty,
                              until=duration, depth=depth,
                              drop_queued=bool(drop_queued))
    network = make_multihop_network(links, dt=dt, seed=seed,
                                    monitor="bottleneck", faults=faults)
    mu = mbps_to_bytes_per_sec(link_mbps)
    network.add_flow(Flow(cc=make_scheme(scheme, mu), prop_rtt=prop_rtt,
                          name=MAIN_FLOW))
    cross = ScriptedCrossTraffic(
        network=network,
        phases=build_phases(duration, phase_duration, inelastic_mbps,
                            elastic_flows),
        prop_rtt=prop_rtt, seed=seed + 7)
    cross.install()
    network.run(duration)

    down_seconds = sum(fault.duration for fault in faults)
    return scripted_case_payload(
        network, cross, scheme, link_mbps, duration, len(faults),
        extra={"down_fraction": (down_seconds / duration
                                 if duration else 0.0)})


def run(schemes: Iterable[str] = DEFAULT_SCHEMES, period: float = 8.0,
        depth: float = 1.0, duty: float = 0.25, drop_queued: int = 0,
        link_mbps: float = 48.0, wan_mbps: float = 96.0,
        hop_delay_ms: float = 10.0, buffer_ms: float = 100.0,
        prop_rtt: float = 0.05, phase_duration: float = 15.0,
        duration: float = 60.0, dt: float = 0.002,
        seed: int = 0) -> ExperimentResult:
    """Run every scheme over the same flapping chain as one cached batch."""
    schemes = list(schemes)
    result = ExperimentResult(
        name="link_flap",
        parameters=dict(schemes=schemes, period=period, depth=depth,
                        duty=duty, drop_queued=int(drop_queued),
                        link_mbps=link_mbps, wan_mbps=wan_mbps,
                        duration=duration))
    run_cases(
        run_case, [dict(scheme=scheme) for scheme in schemes], result,
        period=period, depth=depth, duty=duty, drop_queued=int(drop_queued),
        link_mbps=link_mbps, wan_mbps=wan_mbps, hop_delay_ms=hop_delay_ms,
        buffer_ms=buffer_ms, prop_rtt=prop_rtt, phase_duration=phase_duration,
        duration=duration, dt=dt, seed=seed)
    return result
