"""Fluid-chunk network simulator: the reproduction's Mahimahi substitute.

Exports the pieces needed to assemble an experiment: bottleneck links with
queue policies, node/link topologies with forwarding tables, transport flows,
application sources, and the tick-driven network engine
(:class:`TopologyNetwork`).
"""

from .aqm import DropTail, Pie, QueuePolicy
from .endpoint import Flow
from .faults import (
    FAULT_EVENT_KINDS,
    FaultEvent,
    FaultSchedule,
)
from .fluid import FluidClass, FluidLinkState
from .link import BottleneckLink
from .measurement import FlowMeasurement, WindowedCounter
from .packet import Ack, Chunk, FlowStats
from .source import BackloggedSource, FiniteSource, PacedSource, Source
from .telemetry import (
    EVENT_KINDS,
    TRACE_SCHEMA_VERSION,
    JsonlTraceSink,
    sink_from_env,
    validate_trace_record,
)
from .topology import AuditError, Topology, TopologyNetwork
from .trace import Recorder
from .units import (
    BITS_PER_BYTE,
    MSS_BYTES,
    bytes_per_sec_to_mbps,
    mbps_to_bytes_per_sec,
)

__all__ = [
    "Ack",
    "AuditError",
    "BackloggedSource",
    "BITS_PER_BYTE",
    "BottleneckLink",
    "Chunk",
    "DropTail",
    "EVENT_KINDS",
    "FAULT_EVENT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "Flow",
    "FlowMeasurement",
    "FlowStats",
    "FluidClass",
    "FluidLinkState",
    "FiniteSource",
    "JsonlTraceSink",
    "MSS_BYTES",
    "PacedSource",
    "Pie",
    "QueuePolicy",
    "Recorder",
    "Source",
    "Topology",
    "TopologyNetwork",
    "TRACE_SCHEMA_VERSION",
    "WindowedCounter",
    "sink_from_env",
    "validate_trace_record",
    "bytes_per_sec_to_mbps",
    "mbps_to_bytes_per_sec",
]
