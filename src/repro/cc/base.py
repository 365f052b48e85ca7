"""Congestion-control algorithm interface.

Every algorithm in :mod:`repro.cc` (and the Nimbus controller in
:mod:`repro.core.nimbus`) implements :class:`CongestionControl`.  The
transport endpoint consults the algorithm for two limits each tick:

* ``cwnd_bytes`` — a window limit; the endpoint will not allow more than
  this many bytes in flight (``None`` means unlimited).
* ``pacing_rate`` — a rate limit in bytes per second (``None`` means the
  flow is purely window/ACK clocked).

and feeds back acknowledgements, loss notifications, and a periodic tick at
the control interval (10 ms, matching the paper's CCP reporting cadence).

What makes an algorithm a building block of a mode-switching controller
(:class:`~repro.core.nimbus.Nimbus`) also lives here: the mode vocabulary
and the hand-off hook :meth:`CongestionControl.take_over`.
"""

from __future__ import annotations

from abc import ABC
from typing import TYPE_CHECKING, Optional

from ..simulator.units import MSS_BYTES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulator.endpoint import Flow
    from ..simulator.measurement import FlowMeasurement
    from ..simulator.packet import Ack

#: What a mode-switching algorithm (Nimbus, Copa) reports as its ``mode``.
MODE_DELAY = "delay"
MODE_COMPETITIVE = "competitive"


class CongestionControl(ABC):
    """Base class for all congestion-control algorithms.

    Subclasses override the ``on_*`` hooks they care about and maintain
    ``self.cwnd`` and/or ``self.rate``.  The flow the algorithm is attached
    to is available as ``self.flow`` after :meth:`register` is called, and
    its measurement state as ``self.measurement``.
    """

    #: Human-readable algorithm name (used in traces and plots).
    name: str = "base"
    #: Whether the algorithm reacts to congestion at all.  Purely inelastic
    #: sources (constant bit-rate) set this to False; the experiment drivers
    #: use it as ground truth for classification accuracy.
    elastic: bool = True
    #: None unless the algorithm switches modes.
    mode: Optional[str] = None
    #: Window a window-based algorithm starts from (IW10) and its floor.
    init_cwnd: float = 10 * MSS_BYTES
    min_cwnd: float = 2 * MSS_BYTES

    def __init__(self) -> None:
        self.flow: Optional["Flow"] = None
        self.cwnd: Optional[float] = self.init_cwnd
        self.rate: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def register(self, flow: "Flow") -> None:
        """Attach the algorithm to its flow.  Called once by the flow."""
        self.flow = flow

    @property
    def measurement(self) -> "FlowMeasurement":
        """Measurement state of the attached flow."""
        if self.flow is None:
            raise RuntimeError(f"{self.name} is not attached to a flow yet")
        return self.flow.measurement

    # ------------------------------------------------------------------ #
    # Limits consulted by the endpoint
    # ------------------------------------------------------------------ #
    @property
    def cwnd_bytes(self) -> Optional[float]:
        """Window limit in bytes, or None for no window limit."""
        return self.cwnd

    @property
    def pacing_rate(self) -> Optional[float]:
        """Pacing rate in bytes/s, or None for no pacing."""
        return self.rate

    # ------------------------------------------------------------------ #
    # Event hooks
    # ------------------------------------------------------------------ #
    def on_ack(self, ack: "Ack", now: float) -> None:
        """Called for every acknowledgement received by the flow."""

    def on_loss(self, lost_bytes: float, now: float) -> None:
        """Called when the flow learns that ``lost_bytes`` were dropped."""

    def on_control_tick(self, now: float, dt: float) -> None:
        """Called every control interval (10 ms)."""

    def take_over(self, rate: float, rtt: float) -> None:
        """Govern the flow from this operating point (bytes/s, seconds).

        Called by a mode-switching controller on the inner algorithm it
        hands the flow to.  The default seeds the window; override to also
        reset what remembers the old operating point, or to set a rate.
        The hook does not know which role it serves: an override's reset
        applies whether the algorithm is the delay or the competitive mode.
        """
        if self.cwnd is not None:
            self.cwnd = max(rate * rtt, 4 * MSS_BYTES)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class NullCC(CongestionControl):
    """No congestion control at all: send whatever the application offers.

    Used for inelastic sources (CBR / Poisson streams) whose sending rate is
    dictated entirely by the application layer.
    """

    name = "null"
    elastic = False

    def __init__(self) -> None:
        super().__init__()
        self.cwnd = None
        self.rate = None
