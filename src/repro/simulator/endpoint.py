"""Transport endpoint: ties a congestion controller, an application source,
and a path together into a flow the network engine can drive.

The flow is the unit of scheduling in the simulator.  Every tick the engine
asks each active flow *that time alone could unblock* how many bytes it
wants to transmit; the flow answers by combining three limits:

* the congestion window (ACK clocking) reported by its algorithm,
* the pacing rate reported by its algorithm, and
* the bytes its application source has made available.

ACK clocking is therefore emergent: a window-limited flow can only emit new
bytes when acknowledgements return, so fluctuations induced at the
bottleneck by Nimbus's pulses show up in the flow's send rate one RTT later
— the very behaviour the elasticity detector looks for (§3.2 of the paper).

A flow that found no budget and that only feedback can unblock — it has no
pacing rate and neither its algorithm's ``on_control_tick`` nor its source's
``advance`` does anything — is marked *waiting* and is not asked again until
``handle_ack``, ``handle_loss`` or ``stop`` clears the mark: a sender that
filled its window blocks until an ACK arrives.  Whether the two hooks are
the inherited no-ops is read off the two classes when the flow is built
rather than declared by them, so a new paced, wrapping or time-fed class
cannot get it wrong by forgetting a flag; such flows are asked every tick.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from .measurement import FlowMeasurement
from .packet import Ack, Chunk, FlowStats
from .source import BackloggedSource, Source
from .units import MSS_BYTES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cc.base import CongestionControl

#: How often (seconds) a flow runs its algorithm's ``on_control_tick``: the
#: paper's 10 ms CCP reporting cadence.
CONTROL_INTERVAL = 0.01


def control_period(dt: float) -> float:
    """The spacing of the control ticks that :meth:`Flow.emit`'s gate
    realises on a ``dt`` tick grid: the fewest whole ticks that reach
    ``CONTROL_INTERVAL`` (less the gate's 1e-12 s slack), e.g. 12 ms on a
    4 ms grid.  A control-tick reader's FFT frequency axis needs this
    spacing, not the nominal interval."""
    return max(1, math.ceil((CONTROL_INTERVAL - 1e-12) / dt)) * dt


class Flow:
    """A unidirectional transport flow through the bottleneck.

    Args:
        cc: Congestion-control algorithm governing the flow.
        prop_rtt: Two-way propagation delay in seconds (no queueing) of the
            flow's access legs: last hop to receiver plus the ACK return
            path.  On a multi-hop path the flow's end-to-end base RTT is
            this plus the intermediate links' propagation delays (see
            :mod:`repro.simulator.topology`); on the classic single-link
            network the two are the same number.
        source: Application source; defaults to a backlogged bulk transfer.
        start_time: Simulation time at which the flow starts sending.
        name: Optional label for traces; defaults to the algorithm name.
        max_burst_bytes: Cap on bytes emitted in a single tick, to bound the
            burstiness of unpaced window-based senders.

    Slotted: a run keeps every flow it ever created (thousands in the WAN
    workloads), so the access delays, stored rather than computed, must
    not grow a per-instance ``__dict__``.  For the same reason
    :meth:`stop` releases what only a running flow uses: a finished flow
    keeps ``stats`` (its byte totals, start and end), ``fct``,
    ``next_seq`` and its measurement's last readings (``inflight`` among
    them), while ``cc`` and ``source`` become ``None``.
    """

    __slots__ = ("cc", "prop_rtt", "delay_to_receiver", "delay_ack",
                 "source", "start_time", "name", "max_burst_bytes",
                 "flow_id", "measurement", "stats", "next_seq",
                 "_pace_credit", "_last_control", "_started", "_finished",
                 "_feedback_clocked", "_waiting")

    def __init__(self, cc: "CongestionControl", prop_rtt: float,
                 source: Optional[Source] = None, start_time: float = 0.0,
                 name: Optional[str] = None,
                 max_burst_bytes: Optional[float] = None) -> None:
        if prop_rtt <= 0:
            raise ValueError("prop_rtt must be positive")
        self.cc = cc
        self.prop_rtt = prop_rtt
        #: Access delays, last link's output -> receiver -> sender; each is
        #: half of ``prop_rtt``.  The intermediate hops of a multi-link
        #: path add their own per-link delays in the engine.
        self.delay_to_receiver = self.delay_ack = prop_rtt / 2.0
        self.source: Optional[Source] = (source if source is not None
                                         else BackloggedSource())
        self.start_time = start_time
        self.name = name if name is not None else cc.name
        self.max_burst_bytes = max_burst_bytes

        #: Identifier assigned by the network when the flow is added.
        self.flow_id: int = -1
        self.measurement = FlowMeasurement()
        self.stats = FlowStats(start_time=start_time)

        self.next_seq = 0.0
        self._pace_credit = 0.0
        self._last_control = -math.inf
        self._started = False
        self._finished = False
        # Imported here: cc.base imports this package while it loads.
        from ..cc.base import CongestionControl
        #: Both per-tick hooks are the interfaces' no-ops: nothing but
        #: feedback (or a pacing rate) changes this flow's budget.
        self._feedback_clocked = (
            type(cc).on_control_tick is CongestionControl.on_control_tick
            and type(self.source).advance is Source.advance)
        #: Found no budget; the engine skips the flow until feedback arrives.
        self._waiting = False

        cc.register(self.measurement)

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    @property
    def active(self) -> bool:
        """True while the flow has started and is not yet finished."""
        return self._started and not self._finished

    @property
    def finished(self) -> bool:
        return self._finished

    def start(self, now: float) -> None:
        """Mark the flow as started (called by the engine)."""
        self._started = True
        self.stats.start_time = now

    def stop(self, now: float) -> None:
        """Terminate the flow (used by scripted workloads to end cross
        flows) and release its controller, its source and its windows."""
        if not self._finished:
            self._finished = True
            self._waiting = False
            self.stats.end_time = now
            self.measurement.drop_windows()
            self.cc = self.source = None

    # ------------------------------------------------------------------ #
    # Emission (called once per tick by the engine)
    # ------------------------------------------------------------------ #
    def emit(self, now: float, dt: float) -> Optional[Chunk]:
        """Return the chunk to transmit during this tick, if any."""
        # Each ``x if x < y else y`` below is ``min(y, x)`` and each
        # ``x if x > y else y`` is ``max(y, x)``, bit for bit: the builtins
        # return their first argument unless the second compares past it.
        if not self._started or self._finished:
            return None
        source = self.source
        cc = self.cc
        measurement = self.measurement
        source.advance(now, dt)
        # Fires every control_period(dt): the same rule, kept a float
        # comparison here so the per-tick path does no division.
        if now - self._last_control >= CONTROL_INTERVAL - 1e-12:
            cc.on_control_tick(now, dt)
            self._last_control = now

        budget = math.inf

        cwnd = cc.cwnd
        if cwnd is not None:
            room = cwnd - measurement.inflight
            budget = room if room > 0.0 else 0.0

        rate = cc.rate
        if rate is not None:
            # Token-bucket pacing with a small burst allowance so that a
            # paced flow can catch up after a tick in which it was limited.
            allowance = rate * dt
            burst = allowance * 4
            burst = burst if burst > 2 * MSS_BYTES else 2 * MSS_BYTES
            credit = self._pace_credit + allowance
            self._pace_credit = credit = burst if burst < credit else credit
            budget = credit if credit < budget else budget

        available = source.available(now)
        budget = available if available < budget else budget
        cap = self.max_burst_bytes
        if cap is not None:
            budget = cap if cap < budget else budget

        if budget < 1.0 or not math.isfinite(budget):
            self._waiting = self._feedback_clocked and rate is None
            return None

        chunk = Chunk(self.flow_id, budget, self.next_seq, now)
        self.next_seq += budget
        if rate is not None:
            self._pace_credit -= budget
        source.consume(budget, now)
        measurement.on_send(now, budget)
        self.stats.bytes_sent += budget
        return chunk

    # ------------------------------------------------------------------ #
    # Feedback (called by the engine)
    # ------------------------------------------------------------------ #
    def handle_ack(self, ack: Ack, now: float) -> None:
        """Process an acknowledgement arriving back at the sender."""
        self._waiting = False
        acked = ack.acked_bytes
        measurement = self.measurement
        measurement.on_ack(now, acked, now - ack.sent_time, ack.queue_delay)
        self.stats.bytes_delivered += acked
        source = self.source
        source.on_delivered(acked, now)
        self.cc.on_ack(ack, now)
        if source.finished and measurement.inflight <= 1.0:
            self.stop(now)

    def handle_loss(self, lost_bytes: float, now: float) -> None:
        """Process a loss notification (bytes dropped at the bottleneck)."""
        self._waiting = False
        self.measurement.on_loss(now, lost_bytes)
        self.stats.bytes_lost += lost_bytes
        self.source.on_lost(lost_bytes, now)
        self.cc.on_loss(lost_bytes, now)

    # ------------------------------------------------------------------ #
    # Convenience accessors used by experiments and traces
    # ------------------------------------------------------------------ #
    @property
    def fct(self) -> Optional[float]:
        """Flow completion time in seconds, if the flow has finished."""
        if self.stats.end_time is None:
            return None
        return self.stats.end_time - self.stats.start_time

    def __repr__(self) -> str:
        # A finished flow has released its controller.
        cc = self.cc.name if self.cc is not None else None
        return (f"Flow(name={self.name!r}, cc={cc!r}, "
                f"prop_rtt={self.prop_rtt}, id={self.flow_id})")
