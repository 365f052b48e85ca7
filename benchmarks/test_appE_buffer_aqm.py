"""Appendix E.2: detection accuracy holds across buffer sizes and under PIE."""

from conftest import BENCH_DT

from repro.experiments import appE_buffer_aqm


def test_appE_buffer_aqm():
    result = appE_buffer_aqm.run(
        buffer_bdp_multipliers=(1.0, 2.0), prop_rtts=(0.05,),
        categories=("elastic", "poisson"),
        pie_targets_bdp=(1.0,), duration=35.0, dt=BENCH_DT)
    accuracy = result.data["accuracy"]
    assert result.data["mean_accuracy"] > 0.6
    # Deep drop-tail buffers (the common case) classify well for both pure
    # traffic types.
    assert accuracy[("elastic", 0.05, 2.0, "droptail")] > 0.6
    assert accuracy[("poisson", 0.05, 2.0, "droptail")] > 0.7
