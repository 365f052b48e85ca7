"""Simple reference senders used as cross traffic in the paper's Table 1.

* :class:`ConstantRate` — a paced, inelastic sender (constant bit-rate
  stream).  Its rate never reacts to the network.
* :class:`FixedWindow` — a sender with a constant congestion window.  It is
  ACK-clocked, so even though its window never changes it *is* elastic in
  the paper's sense: its sending rate follows its delivery rate.
* :class:`AppLimited` — convenience wrapper marking an application-limited
  flow (e.g. a low-bitrate video) as inelastic ground truth while letting an
  inner Cubic govern the window.
"""

from __future__ import annotations

from ..simulator.units import MSS_BYTES
from .base import CongestionControl
from .cubic import Cubic


class ConstantRate(CongestionControl):
    """Inelastic constant bit-rate sender (paced, no window)."""

    name = "constant-rate"
    elastic = False

    def __init__(self, rate: float) -> None:
        super().__init__()
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.cwnd = None
        self.rate = rate


class FixedWindow(CongestionControl):
    """A fixed congestion window: ACK-clocked, hence elastic (Table 1)."""

    name = "fixed-window"
    elastic = True

    def __init__(self, window_segments: float = 50.0) -> None:
        super().__init__()
        if window_segments <= 0:
            raise ValueError("window_segments must be positive")
        self.cwnd = window_segments * MSS_BYTES


class AppLimited(CongestionControl):
    """Application-limited flow: inner Cubic, but inelastic ground truth.

    The application source attached to the flow (e.g. a
    :class:`~repro.simulator.source.PacedSource` below the fair share)
    prevents the flow from ever pressing on the bottleneck, so the paper
    classifies such traffic as inelastic regardless of its transport.
    """

    name = "app-limited"
    elastic = False

    def __init__(self) -> None:
        super().__init__()
        self.inner = Cubic()

    def register(self, flow) -> None:
        super().register(flow)
        self.inner.register(flow)

    @property
    def cwnd_bytes(self):
        return self.inner.cwnd_bytes

    @property
    def pacing_rate(self):
        return self.inner.pacing_rate

    def on_ack(self, ack, now: float) -> None:
        self.inner.on_ack(ack, now)

    def on_loss(self, lost_bytes: float, now: float) -> None:
        self.inner.on_loss(lost_bytes, now)

    def on_control_tick(self, now: float, dt: float) -> None:
        self.inner.on_control_tick(now, dt)
