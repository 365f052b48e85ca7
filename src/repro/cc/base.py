"""Congestion-control algorithm interface.

Every algorithm in :mod:`repro.cc` (and the Nimbus controller in
:mod:`repro.core.nimbus`) implements :class:`CongestionControl`, in the
shape the paper's CCP implementation gives an algorithm: measurement in,
two limits out.  The flow hands the algorithm its
:class:`~repro.simulator.measurement.FlowMeasurement` once, through
:meth:`CongestionControl.register`, and reads two attributes each tick:

* ``cwnd`` — a window limit; the endpoint will not allow more than
  this many bytes in flight (``None`` means unlimited).
* ``rate`` — a pacing rate in bytes per second (``None`` means the
  flow is purely window/ACK clocked).

It feeds back acknowledgements, loss notifications, and a periodic tick at
the control interval (10 ms, matching the paper's CCP reporting cadence).
The algorithm holds no reference to its flow.

What makes an algorithm a building block of a mode-switching controller
(:class:`~repro.core.nimbus.Nimbus`) also lives here: the mode vocabulary
and the hand-off hook :meth:`CongestionControl.take_over`.
"""

from __future__ import annotations

from abc import ABC
from typing import TYPE_CHECKING, Optional

from ..simulator.units import MSS_BYTES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulator.measurement import FlowMeasurement
    from ..simulator.packet import Ack

#: What a mode-switching algorithm (Nimbus, Copa) reports as its ``mode``.
MODE_DELAY = "delay"
MODE_COMPETITIVE = "competitive"


class CongestionControl(ABC):
    """Base class for all congestion-control algorithms.

    Subclasses override the ``on_*`` hooks they care about and maintain
    ``self.cwnd`` and/or ``self.rate``.  The measurement state of the flow
    the algorithm governs is ``self.measurement`` once :meth:`register`
    has been called.
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
        self.measurement: Optional["FlowMeasurement"] = None
        self.cwnd: Optional[float] = self.init_cwnd
        self.rate: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def register(self, measurement: "FlowMeasurement") -> None:
        """Hand the algorithm its flow's measurement.  Called once by the
        flow."""
        self.measurement = measurement

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
