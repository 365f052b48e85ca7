"""Figure 5: the cross-traffic FFT has a pronounced peak at fp only when the
cross traffic is elastic."""

from conftest import BENCH_DT

from repro.experiments import fig05_fft


def test_fig05_fft():
    result = fig05_fft.run(duration=25.0, dt=BENCH_DT)
    elastic = result.data["elastic"]
    inelastic = result.data["inelastic"]
    # Elastic: the fp peak dominates its neighbourhood (eta above threshold).
    assert elastic["eta"] >= 1.5
    assert elastic["peak_at_fp"] > elastic["peak_neighbourhood"]
    # Inelastic: no dominant peak at fp.
    assert inelastic["eta"] < 2.0
