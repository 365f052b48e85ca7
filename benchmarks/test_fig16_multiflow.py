"""Figure 16: multiple Nimbus flows share the link fairly, elect at most a
handful of pulsers, and keep delays low."""

from conftest import BENCH_DT

from repro.experiments import fig16_multiflow


def test_fig16_multiflow():
    result = fig16_multiflow.run(n_flows=3, stagger=15.0,
                                 flow_duration=50.0, dt=BENCH_DT)
    data = result.data
    assert data["jain_fairness"] > 0.7
    # Decentralised election keeps concurrent pulsers low (paper: ~1).
    assert data["mean_pulsers"] <= 2.0
    # Flows spend the majority of their time in delay mode, keeping the
    # queue well below a buffer-filling scheme's level.
    assert sum(data["delay_mode_fraction"]) / len(data["delay_mode_fraction"]) > 0.5
    assert data["queue"]["mean"] < 60.0
