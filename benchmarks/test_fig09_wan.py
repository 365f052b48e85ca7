"""Figure 9: against WAN cross traffic Nimbus matches Cubic's throughput at a
much lower RTT, while Vegas loses throughput."""

import pytest

from conftest import BENCH_DT

from repro.experiments import fig09_wan


@pytest.mark.xfail(strict=True, reason=(
    "delay assertion: Nimbus's mean queue delay reads 21.99 ms against "
    "Cubic's 20.26 ms (bound < 0.8x) on one seed of a heavy-tailed mix "
    "whose generator also under-offers load; ROADMAP item 2 (WAN workload)"))
def test_fig09_wan():
    result = fig09_wan.run(schemes=("nimbus", "cubic", "vegas"),
                           duration=45.0, dt=BENCH_DT)
    nimbus = result.schemes["nimbus"]
    cubic = result.schemes["cubic"]
    vegas = result.schemes["vegas"]
    # Throughput: Nimbus comparable to Cubic; Vegas below both.
    assert nimbus.summary.mean_throughput_mbps > \
        0.7 * cubic.summary.mean_throughput_mbps
    assert vegas.summary.mean_throughput_mbps < \
        nimbus.summary.mean_throughput_mbps
    # Delay: Nimbus clearly below Cubic, in the direction of Vegas.
    assert nimbus.extra["queue"]["mean"] < 0.8 * cubic.extra["queue"]["mean"]
