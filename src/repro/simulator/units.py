"""Unit conversion helpers used throughout the simulator.

The simulator works internally in **bytes**, **bytes per second**, and
**seconds**.  The paper (and most networking literature) quotes rates in
Mbit/s and delays in milliseconds, so these helpers keep the conversion in
one obvious place.
"""

from __future__ import annotations

#: Default maximum segment size, in bytes.  Matches a typical Ethernet MTU
#: minus IP/TCP headers; the paper's experiments use 1500-byte packets.
MSS_BYTES = 1500

#: Number of bits in a byte (spelled out so rate conversions read clearly).
BITS_PER_BYTE = 8


def mbps_to_bytes_per_sec(mbps: float) -> float:
    """Convert a rate in megabits per second to bytes per second."""
    return mbps * 1e6 / BITS_PER_BYTE


def bytes_per_sec_to_mbps(rate: float) -> float:
    """Convert a rate in bytes per second to megabits per second."""
    return rate * BITS_PER_BYTE / 1e6
