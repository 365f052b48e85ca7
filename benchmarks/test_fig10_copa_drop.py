"""Figure 10: Copa's throughput collapses for long periods against an elastic
flow; Nimbus keeps a fair share."""

from conftest import BENCH_DT

from repro.experiments import fig10_copa_drop


def test_fig10_copa_drop():
    result = fig10_copa_drop.run(duration=50.0, elastic_start=10.0,
                                 cross_rtt_ratio=1.0, dt=BENCH_DT)
    nimbus = result.schemes["nimbus"].extra
    copa = result.schemes["copa"].extra
    # Nimbus sustains more throughput than Copa while the elastic flow is
    # active, and spends less time starved below half its fair share.
    assert nimbus["throughput_during_elastic"] > \
        copa["throughput_during_elastic"]
    assert nimbus["starved_fraction"] <= copa["starved_fraction"] + 0.05
