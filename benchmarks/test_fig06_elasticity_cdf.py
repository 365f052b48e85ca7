"""Figure 6: the elasticity metric grows with the elastic share of cross
traffic; purely inelastic traffic sits near eta=1, purely elastic well above
the threshold of 2."""

from conftest import BENCH_DT

from repro.experiments import fig06_elasticity_cdf


def test_fig06_elasticity_cdf():
    result = fig06_elasticity_cdf.run(
        elastic_fractions=(0.0, 0.5, 1.0), duration=30.0, dt=BENCH_DT)
    medians = result.data["median_eta"]
    # Monotone direction: fully elastic >> fully inelastic.
    assert medians[1.0] > medians[0.0]
    # Purely inelastic traffic stays below the threshold...
    assert medians[0.0] < 2.0
    # ...and any substantial elastic component pushes the median up.
    assert medians[1.0] > 1.5
    assert medians[0.5] > medians[0.0]
