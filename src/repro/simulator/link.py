"""Bottleneck link model: a FIFO queue drained at a fixed rate.

This is the simulator's stand-in for the Mahimahi bottleneck used in the
paper.  Chunks from all flows share a single first-in-first-out queue whose
admission is governed by a :class:`~repro.simulator.aqm.QueuePolicy`
(drop-tail by default, PIE optionally).  The link drains at ``capacity``
bytes per second; each dequeued chunk records the queueing delay it
experienced, which downstream becomes the per-packet queueing delay the
paper plots.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque

from .aqm import DropTail, QueuePolicy
from .packet import Chunk


@dataclass(slots=True)
class DropRecord:
    """Bytes dropped for a flow at a given time.

    Slotted: under heavy congestion one record is cut per flow per tick,
    so these ride the same hot path as :class:`~repro.simulator.packet.Chunk`.
    """

    flow_id: int
    lost_bytes: float
    time: float


class BottleneckLink:
    """Single shared bottleneck with a FIFO queue.

    Args:
        capacity: Link rate in bytes per second.
        policy: Queue admission policy; defaults to an effectively infinite
            drop-tail buffer if omitted.
        name: Optional label used in reprs and traces.
    """

    def __init__(self, capacity: float, policy: QueuePolicy | None = None,
                 name: str = "bottleneck") -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.policy = policy if policy is not None else DropTail(1e15)
        self.name = name
        self._queue: Deque[Chunk] = deque()
        self.queue_bytes = 0.0
        #: Per-flow queued-byte and queued-chunk counters, kept in lockstep
        #: with ``_queue`` so :meth:`occupancy_of` is O(1) instead of a scan.
        #: A flow's entries are removed once its last chunk leaves, which
        #: also resets any accumulated float residue to an exact zero.
        self._flow_bytes: dict[int, float] = {}
        self._flow_chunks: dict[int, int] = {}
        self.total_drops: float = 0.0
        self.total_served: float = 0.0
        #: Bytes ever presented to :meth:`enqueue` (admitted or not).  With
        #: the other counters this yields the per-hop conservation law
        #: ``total_offered == total_served + queue_bytes + total_drops``.
        self.total_offered: float = 0.0
        #: Unused service capacity carried over between ticks (bytes).  The
        #: link is work-conserving: it never accumulates credit while idle.
        self._service_credit = 0.0
        #: Fault state (see :mod:`repro.simulator.faults`).  A link that is
        #: not ``up`` serves nothing; if it additionally refuses arrivals
        #: (a "drop"-policy flap), offered bytes are counted and immediately
        #: recorded as drops so the conservation law keeps holding.
        self.up = True
        self._refuse_arrivals = False
        #: Fluid-aggregate background traffic sharing this queue, or
        #: ``None`` (see :mod:`repro.simulator.fluid`).  Attached by
        #: ``TopologyNetwork.attach_fluid_class``; with no fluid state
        #: every hot-path site below reduces to one ``is None`` check and
        #: the link's numbers are bit-identical to a fluid-free build.
        self.fluid = None

    # ------------------------------------------------------------------ #
    # Queue state
    # ------------------------------------------------------------------ #
    @property
    def queue_delay(self) -> float:
        """Current queueing delay in seconds if the queue drains at capacity.

        With a fluid aggregate attached, its backlog shares this queue, so
        the delay every observer sees (admission policies, the recorder,
        tracked flows' chunks) includes the fluid bytes ahead of them.
        """
        if self.fluid is None:
            return self.queue_bytes / self.capacity
        return (self.queue_bytes + self.fluid.backlog) / self.capacity

    def occupancy_of(self, flow_id: int) -> float:
        """Bytes currently queued that belong to ``flow_id``.

        Used to compute the "self-inflicted" delay of Figure 3; drivers
        call it every tick, so it reads a maintained counter rather than
        scanning the queue.
        """
        return self._flow_bytes.get(flow_id, 0.0)

    # ------------------------------------------------------------------ #
    # Enqueue / dequeue
    # ------------------------------------------------------------------ #
    def enqueue(self, chunk: Chunk, now: float) -> list[DropRecord]:
        """Admit a chunk (possibly partially) to the queue.

        Returns a list of drop records for any bytes that were not admitted.
        """
        drops: list[DropRecord] = []
        self.total_offered += chunk.size
        if not self.up and self._refuse_arrivals:
            self.total_drops += chunk.size
            drops.append(DropRecord(chunk.flow_id, chunk.size, now))
            return drops
        fluid = self.fluid
        if fluid is not None:
            fluid.tick_offered += chunk.size
            if fluid.loss_debt > 1e-9:
                # This chunk is a proportional victim of an overflow the
                # fluid aggregate absorbed earlier in the tick: in an
                # interleaved FIFO these bytes would have been the ones
                # dropped.  Trim them here so the flow sees its share of
                # the congestion loss through the normal feedback path.
                cut = min(chunk.size, fluid.loss_debt)
                fluid.loss_debt -= cut
                self.total_drops += cut
                drops.append(DropRecord(chunk.flow_id, cut, now))
                if cut >= chunk.size - 1e-9:
                    return drops
                chunk.size -= cut
        size = chunk.size
        queued = self.queue_bytes if fluid is None \
            else self.queue_bytes + fluid.backlog
        # ``queued / capacity`` is :attr:`queue_delay`, with or without fluid.
        admitted = self.policy.admit(size, queued, queued / self.capacity,
                                     now)
        admitted = admitted if admitted < size else size
        admitted = admitted if admitted > 0.0 else 0.0
        lost = size - admitted
        if lost > 1e-9 and fluid is not None:
            fluid_backlog = fluid.backlog
            if fluid_backlog > 1e-9:
                # Interleaved-FIFO swap, the reverse of the fluid's loss
                # debt: the fluid sheds its queue-share of this overflow
                # and the freed space admits chunk bytes that would have
                # been dropped, so congestion losses land on both halves
                # of the traffic in proportion.
                extra = lost * fluid_backlog \
                    / (fluid_backlog + self.queue_bytes)
                if extra > fluid_backlog:
                    extra = fluid_backlog
                if extra > 1e-9:
                    fluid.shed(extra, now)
                    admitted += extra
                    lost = size - admitted
        if lost > 1e-9:
            drops.append(DropRecord(chunk.flow_id, lost, now))
            self.total_drops += lost
        if admitted > 1e-9:
            chunk.size = admitted
            chunk.enqueue_time = now
            self._queue.append(chunk)
            self.queue_bytes += admitted
            flow_id = chunk.flow_id
            flow_bytes = self._flow_bytes
            flow_bytes[flow_id] = flow_bytes.get(flow_id, 0.0) + admitted
            flow_chunks = self._flow_chunks
            flow_chunks[flow_id] = flow_chunks.get(flow_id, 0) + 1
            if fluid is not None:
                fluid.tick_admitted += admitted
        return drops

    def service(self, now: float, dt: float) -> list[Chunk]:
        """Drain up to ``capacity * dt`` bytes from the head of the queue.

        Returns the dequeued chunks with their ``queue_delay`` populated.
        The departure time of every chunk served in this interval is ``now``
        (end of the tick); with millisecond ticks the rounding is far below
        the delays of interest.
        """
        if not self.up:
            # A downed link serves nothing and banks no credit: service
            # resumes from a clean slate when it comes back up.
            self._service_credit = 0.0
            return []
        budget = self.capacity * dt + self._service_credit
        fluid = self.fluid
        if fluid is not None:
            # The fluid aggregate shares the queue: it takes the byte-
            # proportional share of this tick's budget up front (FIFO
            # fairness between the packet queue and the fluid backlog).
            budget = fluid.take_service(budget, now)
        served: list[Chunk] = []
        queue = self._queue
        if queue and budget > 1e-9:
            flow_bytes = self._flow_bytes
            flow_chunks = self._flow_chunks
            policy = self.policy
            # Only a policy that overrides the base no-op hears of dequeues;
            # the queue delay it is told is then computed for it alone.
            on_dequeue = (policy.on_dequeue
                          if type(policy).on_dequeue
                          is not QueuePolicy.on_dequeue else None)
            queue_bytes = self.queue_bytes
            total_served = self.total_served
            while queue and budget > 1e-9:
                head = queue[0]
                size = head.size
                flow_id = head.flow_id
                if size <= budget + 1e-9:
                    queue.popleft()
                    take = head
                    budget -= size
                    remaining = flow_chunks[flow_id] - 1
                    if remaining:
                        flow_chunks[flow_id] = remaining
                        flow_bytes[flow_id] -= size
                    else:
                        del flow_chunks[flow_id]
                        del flow_bytes[flow_id]
                else:
                    take = head.split(budget)
                    size = take.size
                    budget = 0.0
                    flow_bytes[flow_id] -= size
                wait = now - take.enqueue_time
                take.queue_delay += wait if wait > 0.0 else 0.0
                queue_bytes -= size
                total_served += size
                if on_dequeue is not None:
                    self.queue_bytes = queue_bytes
                    self.total_served = total_served
                    on_dequeue(size, self.queue_delay, now)
                served.append(take)
            self.queue_bytes = queue_bytes
            self.total_served = total_served
        if fluid is not None and budget > 1e-9:
            # Budget survives the loop only when the packet queue drained
            # dry: hand the leftover to the fluid backlog so the link
            # stays work-conserving across both halves of the queue.
            budget -= fluid.drain_leftover(budget, now)
        # A work-conserving link does not bank credit while idle.
        self._service_credit = budget if queue else 0.0
        if self.queue_bytes < 1e-9:
            self.queue_bytes = 0.0
        return served

    # ------------------------------------------------------------------ #
    # Fault hooks (driven by repro.simulator.faults)
    # ------------------------------------------------------------------ #
    def set_capacity(self, capacity: float) -> None:
        """Change the drain rate in place (capacity-dip faults)."""
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity

    def take_down(self, refuse_arrivals: bool = False) -> None:
        """Stop serving the queue until :meth:`bring_up`.

        With ``refuse_arrivals`` every offered chunk while down is dropped
        whole (blackhole); otherwise arrivals keep queueing under the normal
        admission policy and drain once the link recovers.
        """
        self.up = False
        self._refuse_arrivals = refuse_arrivals
        self._service_credit = 0.0

    def bring_up(self) -> None:
        """Resume service; no credit is banked for the downtime."""
        self.up = True
        self._refuse_arrivals = False
        self._service_credit = 0.0

    def flush(self, now: float) -> list[DropRecord]:
        """Drop every queued byte, one aggregated record per flow.

        Used by "drop"-policy link flaps: the queue empties into drop
        records (in head-to-tail order of first appearance) so the
        conservation law ``offered == served + queued + drops`` still
        holds exactly — queued bytes move to ``total_drops``.
        """
        if not self._queue:
            return []
        drops: list[DropRecord] = []
        for flow_id, lost in self._flow_bytes.items():
            if lost > 1e-9:
                drops.append(DropRecord(flow_id, lost, now))
        # Move the *maintained* byte counter, not the per-flow sum, so the
        # conservation counters stay exact to the last float residue.
        self.total_drops += self.queue_bytes
        self.queue_bytes = 0.0
        self._queue.clear()
        self._flow_bytes.clear()
        self._flow_chunks.clear()
        self._service_credit = 0.0
        return drops

    def __repr__(self) -> str:
        return (f"BottleneckLink(name={self.name!r}, "
                f"capacity={self.capacity:.0f} B/s, policy={self.policy!r})")
