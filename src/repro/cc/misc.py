"""A reference sender used as cross traffic in the paper's Table 1.

:class:`FixedWindow` is a sender with a constant congestion window.  It is
ACK-clocked, so even though its window never changes it *is* elastic in the
paper's sense: its sending rate follows its delivery rate.
"""

from __future__ import annotations

from ..simulator.units import MSS_BYTES
from .base import CongestionControl


class FixedWindow(CongestionControl):
    """A fixed congestion window: ACK-clocked, hence elastic (Table 1)."""

    name = "fixed-window"
    elastic = True

    def __init__(self, window_segments: float = 50.0) -> None:
        super().__init__()
        if window_segments <= 0:
            raise ValueError("window_segments must be positive")
        self.cwnd = window_segments * MSS_BYTES
