"""Fluid-aggregate cross traffic: whole flow classes as per-link scalars.

The paper's WAN scenarios pit one tracked flow against thousands of
background flows.  Simulating each background flow as a Python object is
exact but linear in the flow count — the hard ceiling the ROADMAP's
"aggregate cross-traffic" item names.  This module models an entire
*class* of background flows at one hop as a handful of floats: per-tick
offered bytes drawn from the class's Poisson arrival process and
heavy-tailed flow-size distribution, a class-level AIMD window law for
elastic traffic, and a rate envelope for inelastic traffic.  Tracked
flows (the Nimbus flow, competitors under study) stay chunk-exact on the
existing engine; only the background crowd is aggregated, so the per-tick
cost is a few numpy scalar draws regardless of whether the class stands
for sixteen flows or a million.

Accounting contract: every class maintains the same conservation
counters a :class:`~repro.simulator.link.BottleneckLink` does —
``total_offered == total_served + backlog + total_dropped`` up to float
residue — so the per-hop conservation law audited by ``REPRO_AUDIT``
extends to ``(link offered + fluid offered) == (link served + fluid
served) + (link queued + fluid backlog) + (link drops + fluid drops)``.

Model sketch (elastic classes):

* arrivals are Poisson at ``arrivals_per_sec`` flows/s; each arrival
  draws a size from the log-normal-body / Pareto-tail mixture of
  :mod:`repro.simulator.wan_mixture` (the one the per-flow
  ``repro.traffic.flowsize.HeavyTailedFlowSizes`` samples) and grants the
  aggregate window one initial window (IW10),
* the aggregate window ``W`` follows the same cubic growth law as the
  tracked :class:`~repro.cc.cubic.Cubic` flows (per-member-flow window
  ``W/n`` tracks ``C (t - K)^3 + W_max`` with the TCP-friendly Reno
  region), and is cut multiplicatively once per RTT in proportion to
  the fraction of member flows that saw a drop,
* the class offers ``W / (rtt + queue_delay) * dt`` bytes per tick,
  capped by the un-sent work backlog and by the window minus the bytes
  already sitting in the queue (the in-flight constraint), so queue
  growth throttles the class exactly like ACK clocking would,
* served bytes complete flows at the mean-flow-size rate; departing
  flows take their window share with them, dropped bytes re-enter the
  work backlog (retransmission) and count as loss events.

A class with ``flows > 0`` is instead a fixed *population* of
long-running backlogged flows (no arrivals, infinite work) — the
aggregate analogue of N persistent Cubic cross flows, which is what the
A/B equivalence tests compare against.

Inelastic classes are rate envelopes: per-tick offered bytes are a
Poisson packet count at the target rate, unresponsive to loss or delay —
the aggregate analogue of N Poisson on/off sources.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, List, Optional, Tuple

import numpy as np

from . import wan_mixture
from .units import MSS_BYTES

#: Aggregate window granted per arriving flow: the IW10 initial window.
_INITIAL_WINDOW_BYTES = 10.0 * MSS_BYTES

#: Cubic constants, mirroring ``repro.cc.cubic.Cubic`` so an aggregate
#: class competes fairly with the tracked Cubic flows it stands in for.
_CUBIC_C = 0.4
_CUBIC_BETA = 0.7


class FluidClass:
    """One aggregate class of background cross traffic at a hop.

    Args:
        name: Class label, unique per network (used by the recorder and
            the ``fluid_sample`` telemetry kind).
        link_rate: Capacity of the link the class loads, bytes/s.
        kind: ``"elastic"`` (AIMD window law, loss/delay responsive) or
            ``"inelastic"`` (fixed rate envelope).
        load: Target offered load as a fraction of ``link_rate``; ignored
            when ``rate`` is given.
        rate: Explicit target offered rate in bytes/s.
        rtt: Propagation RTT of the member flows, seconds (the elastic
            feedback delay scale).
        flows: ``> 0`` switches an elastic class to a fixed population of
            this many long-running backlogged flows (no arrivals).
        arrivals_per_sec: Poisson flow-arrival rate.  When given, sampled
            flow sizes are rescaled so the offered load stays at the
            target while the flow count scales freely — how a run stands
            for 10^5 flows at unchanged cost.  Default: the rate implied
            by the target load and the mixture's mean flow size.
        seed: Seed of the class's private numpy generator.
    """

    #: MSS used for window arithmetic and packet noise.
    packet_bytes = float(MSS_BYTES)

    def __init__(self, name: str, link_rate: float, kind: str = "elastic",
                 load: float = 0.5, rate: Optional[float] = None,
                 rtt: float = 0.05, flows: int = 0,
                 arrivals_per_sec: Optional[float] = None,
                 seed: int = 1) -> None:
        if kind not in ("elastic", "inelastic"):
            raise ValueError(f"kind must be 'elastic' or 'inelastic', "
                             f"got {kind!r}")
        if link_rate <= 0:
            raise ValueError("link_rate must be positive")
        if rtt <= 0:
            raise ValueError("rtt must be positive")
        if flows < 0:
            raise ValueError("flows must be >= 0")
        self.name = name
        self.kind = kind
        self.link_rate = link_rate
        self.rtt = rtt
        self.target_rate = float(rate) if rate is not None \
            else float(load) * link_rate
        if self.target_rate <= 0:
            raise ValueError("target rate must be positive")
        self._rng = np.random.Generator(np.random.PCG64(seed))
        # Conservation counters (the fluid half of the per-hop law).
        self.total_offered = 0.0
        self.total_served = 0.0
        self.total_dropped = 0.0
        #: Bytes admitted to the link's shared queue, not yet served.
        self.backlog = 0.0
        # Population bookkeeping.
        self.flows = int(flows)
        self.flows_created = float(flows)
        self.active_flows = float(flows)
        # Elastic state.
        self._track_work = kind == "elastic" and flows == 0
        base_mean = wan_mixture.mean_bytes()
        if self._track_work:
            self._arrival_rate = (float(arrivals_per_sec)
                                  if arrivals_per_sec is not None
                                  else wan_mixture.arrival_rate(
                                      self.target_rate))
            if self._arrival_rate <= 0:
                raise ValueError("arrivals_per_sec must be positive")
            # Rescale sampled sizes so lambda * E[size] == target rate:
            # the flow count is then a free knob that never changes load.
            self._size_scale = self.target_rate \
                / (self._arrival_rate * base_mean)
        else:
            self._arrival_rate = 0.0
            self._size_scale = 1.0
        self._mean_size = base_mean * self._size_scale
        #: Un-sent work (arrival mode): admitted flows' remaining bytes.
        self.work_backlog = 0.0
        #: All bytes not yet delivered (work + queue + retransmit debt).
        self.bytes_in_system = 0.0
        self.window = float(flows) * _INITIAL_WINDOW_BYTES
        #: Aggregate window cap: four buffered-BDPs worth at ``link_rate``.
        self._max_window = 4.0 * link_rate * (rtt + 0.2)
        #: Loss events (packets) since the last multiplicative decrease.
        self._pending_loss = 0.0
        self._last_backoff = 0.0
        #: Loss signals in flight back to the senders: ``(due, packets)``.
        #: Tracked flows learn of a drop one feedback delay (≈ the prop
        #: RTT) after it happens and keep sending meanwhile; the class
        #: gets the same grace so the two back off on the same clock.
        self._loss_pipe: Deque[Tuple[float, float]] = deque()
        # Cubic epoch state, in per-member-flow bytes (the same variables
        # as ``repro.cc.cubic.Cubic``, divided through by the flow count).
        self._w_max = 0.0
        self._epoch_start: Optional[float] = None
        self._k = 0.0
        self._w_est = 0.0
        #: Bytes in flight on the wire (served but, for one propagation
        #: RTT, not yet acknowledged); decays exponentially so the
        #: steady-state value is ``serve_rate * rtt`` — the wire BDP the
        #: class occupies, which counts against the window exactly like
        #: a real flow's unacked in-flight bytes.
        self._wire_flight = 0.0
        #: ``(dt, exp(-dt / rtt))`` of the last tick: the wire decay factor
        #: is recomputed only when the engine's tick changes.
        self._decay = (None, 1.0)
        #: Fixed populations slow-start toward their share; arrival-mode
        #: classes ramp per flow via the IW grant instead.
        self._slow_start = kind == "elastic" and flows > 0
        self._last_qdelay = 0.0
        # Flow-size refill buffer (see _take_sizes_sum).
        self._size_buf = np.empty(0)
        self._size_pos = 0

    # ------------------------------------------------------------------ #
    # Per-tick demand
    # ------------------------------------------------------------------ #
    def offer(self, now: float, dt: float, queue_delay: float) -> float:
        """Bytes this class offers to its link's queue this tick."""
        self._last_qdelay = queue_delay
        if self.kind == "inelastic":
            packets = int(self._rng.poisson(
                self.target_rate * dt / self.packet_bytes))
            return packets * self.packet_bytes
        if self._arrival_rate > 0.0:
            arrivals = int(self._rng.poisson(self._arrival_rate * dt))
            if arrivals:
                added = self._take_sizes_sum(arrivals)
                self.work_backlog += added
                self.bytes_in_system += added
                self.active_flows += arrivals
                self.flows_created += arrivals
                self.window += arrivals * _INITIAL_WINDOW_BYTES
        n = self.active_flows
        n_eff = n if n > 1.0 else 1.0
        srtt = self.rtt + queue_delay
        decay_dt, decay = self._decay
        if dt != decay_dt:
            decay = math.exp(-dt / self.rtt)
            self._decay = (dt, decay)
        self._wire_flight *= decay
        pipe = self._loss_pipe
        while pipe and pipe[0][0] <= now:
            self._pending_loss += pipe.popleft()[1]
        if self._pending_loss > 0.0 and now - self._last_backoff >= srtt:
            # One multiplicative decrease per RTT, scaled by the fraction
            # of member flows that saw a drop in the window: a single
            # flow's backoff barely dents a large aggregate.  The cut per
            # affected flow is Cubic's beta, with fast convergence on the
            # per-flow W_max anchor.
            fraction = min(1.0, self._pending_loss / n_eff)
            w = self.window / n_eff
            if w < self._w_max:
                self._w_max = w * (1.0 + _CUBIC_BETA) / 2.0
            else:
                self._w_max = w
            self.window *= 1.0 - (1.0 - _CUBIC_BETA) * fraction
            self._pending_loss = 0.0
            self._last_backoff = now
            self._epoch_start = None
            self._slow_start = False
        elif self._slow_start:
            self.window *= 2.0 ** (dt / srtt)
        else:
            # Congestion avoidance: the per-member-flow window chases the
            # cubic target W(t) = C (t - K)^3 + W_max, never slower than
            # the TCP-friendly (Reno-equivalent) estimate — the same two
            # regimes as repro.cc.cubic, integrated per tick instead of
            # per ACK.
            w = self.window / n_eff
            if self._epoch_start is None:
                self._epoch_start = now
                if w < self._w_max:
                    self._k = ((self._w_max - w)
                               / (_CUBIC_C * self.packet_bytes)) ** (1.0 / 3.0)
                else:
                    self._k = 0.0
                    self._w_max = w
                self._w_est = w
            t = now - self._epoch_start + self.rtt
            target = (_CUBIC_C * self.packet_bytes * (t - self._k) ** 3
                      + self._w_max)
            if target > w:
                w += (target - w) * (dt / srtt)
            else:
                w += 0.01 * self.packet_bytes * (dt / srtt)
            self._w_est += (3.0 * (1.0 - _CUBIC_BETA) / (1.0 + _CUBIC_BETA)
                            * self.packet_bytes * dt / srtt)
            if self._w_est > w:
                w = self._w_est
            self.window = w * n_eff
        floor = 2.0 * n_eff * self.packet_bytes
        if self.window < floor:
            self.window = floor
        if self.window > self._max_window:
            self.window = self._max_window
        send = self.window / srtt * dt
        # In-flight constraint: bytes already queued plus bytes still on
        # the wire count against the window, so a standing queue throttles
        # the class like ACK clocking throttles real flows.
        headroom = self.window - self.backlog - self._wire_flight
        if send > headroom:
            send = headroom
        if self._track_work:
            if send > self.work_backlog:
                send = self.work_backlog
            self.work_backlog -= max(send, 0.0)
        return send if send > 0.0 else 0.0

    def _take_sizes_sum(self, count: int) -> float:
        """Sum of ``count`` flow-size draws, served from a refill buffer.

        At high arrival rates every tick needs sizes; drawing them
        per-tick would make the tick cost scale with the arrival rate
        through numpy call overhead alone.  Drawing thousands at once
        and consuming from the buffer keeps the amortised cost per
        arrival negligible — the "near-constant in the flow count"
        property the fluid model exists for.
        """
        total = 0.0
        while count > 0:
            available = self._size_buf.size - self._size_pos
            if available == 0:
                self._size_buf = self._sample_sizes(
                    max(4096, count))
                self._size_pos = 0
                available = self._size_buf.size
            take = count if count < available else available
            end = self._size_pos + take
            total += float(self._size_buf[self._size_pos:end].sum())
            self._size_pos = end
            count -= take
        return total

    def _sample_sizes(self, count: int) -> np.ndarray:
        """Vectorized draw of ``count`` flow sizes from the mixture."""
        rng = self._rng
        shorts = rng.random(count) < wan_mixture.SHORT_FRACTION
        sizes = np.empty(count)
        n_short = int(shorts.sum())
        if n_short:
            sizes[shorts] = rng.lognormal(
                math.log(wan_mixture.SHORT_MEDIAN_BYTES),
                wan_mixture.SHORT_SIGMA, n_short)
        n_long = count - n_short
        if n_long:
            sizes[~shorts] = wan_mixture.PARETO_SCALE_BYTES \
                / rng.random(n_long) ** (1.0 / wan_mixture.PARETO_SHAPE)
        np.clip(sizes, wan_mixture.MIN_FLOW_BYTES,
                wan_mixture.MAX_FLOW_BYTES, out=sizes)
        if self._size_scale != 1.0:
            sizes *= self._size_scale
        return sizes

    # ------------------------------------------------------------------ #
    # Engine feedback
    # ------------------------------------------------------------------ #
    def commit(self, offered: float, admitted: float, now: float) -> None:
        """Record the admission decision for this tick's offer.

        Mirrors :meth:`BottleneckLink.enqueue` accounting: offered bytes
        split into queue backlog and drops, with the same ``1e-9``
        residue handling, so the class-level conservation identity holds
        to the tolerance the audit allows links.
        """
        self.total_offered += offered
        lost = offered - admitted
        if admitted > 1e-9:
            self.backlog += admitted
        if lost > 1e-9:
            self.total_dropped += lost
            self.on_dropped(lost, now)

    def sample_overflow_transfer(self, lost: float, share: float) -> float:
        """Packet-side bytes of an overflow that trimmed this class.

        Each lost packet belongs to the packet side with probability
        ``share`` (its arrival share): a binomial draw from the class's
        own generator, so loss *incidence* on tracked flows matches an
        interleaved FIFO — a tracked flow pays a full multiplicative
        decrease for any loss event, however small, so handing it a
        deterministic sliver of every overflow would cut it far more
        often than packet-level interleaving does.
        """
        if share <= 0.0 or lost <= 0.0:
            return 0.0
        share = min(share, 1.0)
        packets = lost / self.packet_bytes
        whole = int(packets)
        hit = int(self._rng.binomial(whole, share)) if whole else 0
        fraction = packets - whole
        if fraction > 0.0 and self._rng.random() < fraction * share:
            hit += 1
        if hit <= 0:
            return 0.0
        return min(hit * self.packet_bytes, lost)

    def on_dropped(self, nbytes: float, now: float) -> None:
        """Loss feedback: ``nbytes`` of this class's traffic were dropped."""
        if self.kind != "elastic":
            return
        self._loss_pipe.append((now + self.rtt, nbytes / self.packet_bytes))
        if self._track_work:
            # Retransmission: the lost payload must be sent again, so it
            # returns to the work backlog (bytes_in_system already holds
            # it — only delivery removes bytes from the system).
            self.work_backlog += nbytes

    def serve(self, nbytes: float, now: float) -> None:
        """``nbytes`` of this class's backlog were transmitted."""
        self.backlog -= nbytes
        if self.backlog < 1e-9:
            self.backlog = max(self.backlog, 0.0)
        self.total_served += nbytes
        self._wire_flight += nbytes
        if not self._track_work:
            return
        self.bytes_in_system -= nbytes
        if self.bytes_in_system < 0.0:
            self.bytes_in_system = 0.0
        n = self.active_flows
        if self.bytes_in_system <= self.packet_bytes:
            new_n = 1.0 if self.bytes_in_system > 0.0 else 0.0
        else:
            # Flows complete at the mean-size rate; heavy-tail epochs where
            # one elephant carries most bytes bottom out at the floor of 1.
            new_n = max(n - nbytes / self._mean_size, 1.0)
        if new_n < n and n > 0.0:
            # Departing flows take their share of the aggregate window.
            self.window *= new_n / n
        self.active_flows = new_n

    def flush(self, now: float) -> float:
        """Drop the whole queue backlog (link flap); returns bytes moved."""
        flushed = self.backlog
        if flushed <= 0.0:
            return 0.0
        self.backlog = 0.0
        self.total_dropped += flushed
        self.on_dropped(flushed, now)
        return flushed

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def current_rate(self) -> float:
        """Instantaneous send rate in bytes/s (window law or envelope)."""
        if self.kind == "inelastic":
            return self.target_rate
        return self.window / (self.rtt + self._last_qdelay)

    def __repr__(self) -> str:
        return (f"FluidClass(name={self.name!r}, kind={self.kind!r}, "
                f"target={self.target_rate:.0f} B/s, "
                f"flows={self.active_flows:.1f})")


class FluidLinkState:
    """The fluid aggregate attached to one link: its classes plus the
    service-sharing arithmetic between the packet FIFO and the fluid
    backlog.

    The link's service budget is split in proportion to queued bytes
    (packet queue vs fluid backlog) — the byte-level fairness a FIFO
    would give interleaved packets — and any budget the packet queue
    cannot use flows back to the fluid side, keeping the link
    work-conserving.
    """

    __slots__ = ("link", "classes", "tick_admitted", "tick_offered",
                 "loss_debt")

    def __init__(self, link) -> None:
        self.link = link
        self.classes: List[FluidClass] = []
        #: Chunk bytes the link admitted since the last fluid tick.  The
        #: fluid's admission subtracts this to see the start-of-tick
        #: queue: chunks enqueue earlier in the tick than the fluid
        #: offer, and without the correction the fluid would bear all of
        #: a full buffer's overflow instead of its proportional share.
        self.tick_admitted = 0.0
        #: Chunk bytes offered (admitted or not) since the last fluid
        #: tick: the packet side's arrival rate, used to split overflow
        #: losses between the two halves of the traffic.
        self.tick_offered = 0.0
        #: Overflow bytes the fluid was trimmed that, in an interleaved
        #: FIFO, would have been packet losses (the packet side's arrival
        #: share of the overflow).  The link drops the next arriving
        #: chunk bytes against this debt, so tracked flows see their
        #: proportional share of congestion loss instead of the fluid
        #: silently absorbing all of it.  Expires after one tick.
        self.loss_debt = 0.0

    # ------------------------------------------------------------------ #
    # Aggregate backlog (what the link's queue delay counts)
    # ------------------------------------------------------------------ #
    @property
    def backlog(self) -> float:
        total = 0.0
        for cls in self.classes:
            total += cls.backlog
        return total

    # ------------------------------------------------------------------ #
    # Service sharing (called by BottleneckLink.service)
    # ------------------------------------------------------------------ #
    def take_service(self, budget: float, now: float) -> float:
        """Serve the fluid backlog's byte-proportional share of ``budget``.

        Returns the budget remaining for the packet queue.
        """
        fluid_backlog = self.backlog
        if fluid_backlog <= 1e-9:
            return budget
        packet_backlog = self.link.queue_bytes
        if packet_backlog <= 1e-9:
            share = budget
        else:
            share = budget * fluid_backlog / (fluid_backlog + packet_backlog)
        return budget - self._drain(min(share, budget), now)

    def shed(self, nbytes: float, now: float) -> None:
        """Drop ``nbytes`` of queued fluid backlog as congestion loss.

        The reverse half of proportional overflow sharing: when a chunk
        is trimmed at admission, the fluid sheds its queue-share of the
        overflow (with loss feedback to the class) and the freed space
        admits the chunk bytes that an interleaved FIFO would have kept.
        """
        fluid_backlog = self.backlog
        if fluid_backlog <= 0.0:
            return
        if len(self.classes) == 1:
            cls = self.classes[0]
            cls.backlog -= nbytes
            if cls.backlog < 1e-9:
                cls.backlog = max(cls.backlog, 0.0)
            cls.total_dropped += nbytes
            cls.on_dropped(nbytes, now)
            return
        for cls in self.classes:
            part = nbytes * cls.backlog / fluid_backlog
            if part > 0.0:
                cls.backlog -= part
                if cls.backlog < 1e-9:
                    cls.backlog = max(cls.backlog, 0.0)
                cls.total_dropped += part
                cls.on_dropped(part, now)

    def drain_leftover(self, budget: float, now: float) -> float:
        """Give unused packet-queue budget to the fluid backlog.

        Returns the bytes consumed (the work-conserving second pass).
        """
        return self._drain(budget, now)

    def _drain(self, budget: float, now: float) -> float:
        fluid_backlog = self.backlog
        take = budget if budget < fluid_backlog else fluid_backlog
        if take <= 1e-9:
            return 0.0
        if len(self.classes) == 1:
            self.classes[0].serve(take, now)
        else:
            # Proportional split across classes; the shares sum to the
            # take up to float residue, which the audit tolerance absorbs.
            for cls in self.classes:
                part = take * cls.backlog / fluid_backlog
                if part > 0.0:
                    cls.serve(part, now)
        return take

    def flush(self, now: float) -> float:
        """Flush every class's backlog into drops (link-flap queue drop)."""
        flushed = 0.0
        for cls in self.classes:
            flushed += cls.flush(now)
        return flushed

    def __repr__(self) -> str:
        return (f"FluidLinkState(link={self.link.name!r}, "
                f"classes={[cls.name for cls in self.classes]})")
