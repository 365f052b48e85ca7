"""Unit conversion helpers."""

import pytest

from repro.simulator.units import (
    MSS_BYTES,
    bytes_per_sec_to_mbps,
    mbps_to_bytes_per_sec,
)


def test_mbps_roundtrip():
    assert bytes_per_sec_to_mbps(mbps_to_bytes_per_sec(48.0)) == pytest.approx(48.0)


def test_mbps_to_bytes_value():
    # 8 Mbit/s is exactly 1e6 bytes per second.
    assert mbps_to_bytes_per_sec(8.0) == pytest.approx(1e6)


def test_mss_is_ethernet_sized():
    assert 1000 <= MSS_BYTES <= 1500


@pytest.mark.parametrize("mbps", [0.1, 1.0, 10.0, 100.0, 1000.0])
def test_conversion_monotone(mbps):
    assert mbps_to_bytes_per_sec(mbps) > mbps_to_bytes_per_sec(mbps / 2)
