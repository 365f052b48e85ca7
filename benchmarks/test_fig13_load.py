"""Figure 13: Nimbus keeps its delay advantage over Cubic at 50% and 90%
cross-traffic load without giving up throughput."""

import pytest

from conftest import BENCH_DT

from repro.experiments import fig13_load


@pytest.mark.xfail(strict=True, reason=(
    "last assertion: at load 50 Nimbus's mean queue delay reads 22.57 ms "
    "against Cubic's 22.86 ms (bound < 0.85x) on one seed of the WAN mix; "
    "ROADMAP item 2 (WAN workload)"))
def test_fig13_load():
    result = fig13_load.run(loads=(0.5, 0.9), pulse_sizes=(0.25,),
                            baselines=("cubic",), duration=40.0, dt=BENCH_DT)
    s = result.schemes
    for load in (50, 90):
        nimbus = s[f"nimbus0.25@load{load}"]
        cubic = s[f"cubic@load{load}"]
        assert nimbus.summary.mean_throughput_mbps > \
            0.6 * cubic.summary.mean_throughput_mbps
        assert nimbus.extra["queue"]["mean"] <= \
            cubic.extra["queue"]["mean"] + 5.0
    # Delay benefit is most pronounced at the lower load.
    assert s["nimbus0.25@load50"].extra["queue"]["mean"] < \
        0.85 * s["cubic@load50"].extra["queue"]["mean"]
