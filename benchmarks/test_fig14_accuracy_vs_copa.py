"""Figure 14: Nimbus classifies more accurately than Copa when inelastic
traffic occupies most of the link and when elastic cross traffic has a much
larger RTT."""

from conftest import BENCH_DT

from repro.experiments import fig14_accuracy_vs_copa


def test_fig14_accuracy_vs_copa():
    result = fig14_accuracy_vs_copa.run(
        inelastic_shares=(0.5, 0.85),
        inelastic_kinds=("poisson",),
        rtt_ratios=(1.0, 4.0), duration=45.0, dt=BENCH_DT)
    inelastic = result.data["inelastic"]
    rtt = result.data["rtt"]
    # High inelastic load: Nimbus stays reasonably accurate, Copa degrades.
    assert inelastic["nimbus"][("poisson", 0.85)] > 0.5
    assert inelastic["nimbus"][("poisson", 0.85)] > \
        inelastic["copa"][("poisson", 0.85)]
    # Large cross-traffic RTT: Nimbus detects the elastic flow, Copa falters.
    assert rtt["nimbus"][4.0] > 0.6
    assert rtt["nimbus"][4.0] >= rtt["copa"][4.0] - 0.05
