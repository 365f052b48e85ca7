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
    """

    def __init__(self, cc: "CongestionControl", prop_rtt: float,
                 source: Optional[Source] = None, start_time: float = 0.0,
                 name: Optional[str] = None,
                 max_burst_bytes: Optional[float] = None) -> None:
        if prop_rtt <= 0:
            raise ValueError("prop_rtt must be positive")
        self.cc = cc
        self.prop_rtt = prop_rtt
        self.source: Source = source if source is not None else BackloggedSource()
        self.start_time = start_time
        self.name = name if name is not None else cc.name
        self.max_burst_bytes = max_burst_bytes

        #: Identifier assigned by the network when the flow is added.
        self.flow_id: int = -1
        self.measurement = FlowMeasurement()
        self.stats = FlowStats(start_time=start_time)

        self.inflight = 0.0
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

        cc.register(self)

    # ------------------------------------------------------------------ #
    # Access delays: last hop -> receiver -> sender.  Intermediate hops of
    # a multi-link path add their own per-link delays in the engine.
    # ------------------------------------------------------------------ #
    @property
    def delay_to_receiver(self) -> float:
        """One-way delay from the last link's output to the receiver."""
        return self.prop_rtt / 2.0

    @property
    def delay_ack(self) -> float:
        """Delay of the acknowledgement from the receiver back to the sender."""
        return self.prop_rtt / 2.0

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
        """Terminate the flow (used by scripted workloads to end cross flows)."""
        if not self._finished:
            self._finished = True
            self._waiting = False
            self.stats.end_time = now
            self.measurement.drop_windows()

    # ------------------------------------------------------------------ #
    # Emission (called once per tick by the engine)
    # ------------------------------------------------------------------ #
    def emit(self, now: float, dt: float) -> Optional[Chunk]:
        """Return the chunk to transmit during this tick, if any."""
        if not self._started or self._finished:
            return None
        self.source.advance(now, dt)
        self._run_control(now, dt)

        budget = math.inf

        cwnd = self.cc.cwnd_bytes
        if cwnd is not None:
            budget = min(budget, max(0.0, cwnd - self.inflight))

        rate = self.cc.pacing_rate
        if rate is not None:
            # Token-bucket pacing with a small burst allowance so that a
            # paced flow can catch up after a tick in which it was limited.
            self._pace_credit = min(self._pace_credit + rate * dt,
                                    max(2 * MSS_BYTES, rate * dt * 4))
            budget = min(budget, self._pace_credit)

        budget = min(budget, self.source.available(now))
        if self.max_burst_bytes is not None:
            budget = min(budget, self.max_burst_bytes)

        if budget < 1.0 or not math.isfinite(budget):
            self._waiting = self._feedback_clocked and rate is None
            return None

        chunk = Chunk(flow_id=self.flow_id, size=budget, seq=self.next_seq,
                      sent_time=now)
        self.next_seq += budget
        self.inflight += budget
        if rate is not None:
            self._pace_credit -= budget
        self.source.consume(budget, now)
        self.measurement.on_send(now, budget)
        self.stats.bytes_sent += budget
        return chunk

    # ------------------------------------------------------------------ #
    # Feedback (called by the engine)
    # ------------------------------------------------------------------ #
    def handle_ack(self, ack: Ack, now: float) -> None:
        """Process an acknowledgement arriving back at the sender."""
        self._waiting = False
        self.inflight = max(0.0, self.inflight - ack.acked_bytes)
        rtt = now - ack.sent_time
        self.measurement.on_ack(now, ack.acked_bytes, rtt, ack.queue_delay)
        self.stats.bytes_delivered += ack.acked_bytes
        self.source.on_delivered(ack.acked_bytes, now)
        self.cc.on_ack(ack, now)
        self._maybe_finish(now)

    def handle_loss(self, lost_bytes: float, now: float) -> None:
        """Process a loss notification (bytes dropped at the bottleneck)."""
        self._waiting = False
        self.inflight = max(0.0, self.inflight - lost_bytes)
        self.measurement.on_loss(now, lost_bytes)
        self.stats.bytes_lost += lost_bytes
        self.source.on_lost(lost_bytes, now)
        self.cc.on_loss(lost_bytes, now)

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _run_control(self, now: float, dt: float) -> None:
        if now - self._last_control >= CONTROL_INTERVAL - 1e-12:
            self.cc.on_control_tick(now, dt)
            self._last_control = now

    def _maybe_finish(self, now: float) -> None:
        if self.source.finished and self.inflight <= 1.0:
            self.stop(now)

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
        return (f"Flow(name={self.name!r}, cc={self.cc.name!r}, "
                f"prop_rtt={self.prop_rtt}, id={self.flow_id})")
