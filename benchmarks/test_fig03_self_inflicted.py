"""Figure 3: self-inflicted delay is the same for elastic and inelastic cross
traffic and therefore cannot be used as an elasticity signal."""

from conftest import BENCH_DT

from repro.experiments import fig03_self_inflicted


def test_fig03_self_inflicted():
    result = fig03_self_inflicted.run(phase_duration=25.0, dt=BENCH_DT)
    data = result.data
    self_elastic = data["self_inflicted_elastic_mean"]
    self_inelastic = data["self_inflicted_inelastic_mean"]
    # The self-inflicted delay looks nearly identical in both phases
    # (the paper's point): within a factor of two of each other...
    assert 0.4 < self_elastic / max(self_inelastic, 1e-9) < 2.5
    # ...and is roughly half of the total delay (the Cubic flow holds about
    # half of the queue because it holds about half of the throughput).
    assert self_elastic < 0.8 * data["total_elastic_mean"]
    assert data["total_elastic_mean"] > 30.0
