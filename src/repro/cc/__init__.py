"""Congestion-control algorithm zoo.

Every scheme the paper runs or competes against is implemented behind the
common :class:`~repro.cc.base.CongestionControl` interface so experiments
can mix and match them freely.
"""

from .base import MODE_COMPETITIVE, MODE_DELAY, CongestionControl, NullCC
from .basic_delay import BasicDelay
from .bbr import Bbr
from .copa import Copa
from .cubic import Cubic
from .misc import FixedWindow
from .reno import NewReno
from .vegas import Vegas
from .vivace import Vivace

__all__ = [
    "BasicDelay",
    "Bbr",
    "CongestionControl",
    "Copa",
    "Cubic",
    "FixedWindow",
    "MODE_COMPETITIVE",
    "MODE_DELAY",
    "NewReno",
    "NullCC",
    "Vegas",
    "Vivace",
]
