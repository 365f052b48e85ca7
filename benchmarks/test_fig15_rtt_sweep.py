"""Figure 15: detection accuracy is insensitive to the cross traffic's RTT
for pure elastic and pure inelastic traffic, and stays usable for mixes."""

from conftest import BENCH_DT

from repro.experiments import fig15_rtt_sweep


def test_fig15_rtt_sweep():
    result = fig15_rtt_sweep.run(
        rtt_ratios=(0.5, 2.0), categories=("elastic", "poisson"),
        duration=40.0, dt=BENCH_DT)
    accuracy = result.data["accuracy"]
    for ratio in (0.5, 2.0):
        assert accuracy["elastic"][ratio] > 0.55
        assert accuracy["poisson"][ratio] > 0.7
