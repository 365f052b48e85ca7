"""Figure 20 / Appendix A: on a path with inelastic cross traffic the
delay-control algorithm alone achieves Cubic-like throughput at much lower
delay."""

from conftest import BENCH_DT

from repro.experiments import internet_paths


def test_fig20_inelastic_paths():
    result = internet_paths.run_appendix_a(duration=30.0, dt=BENCH_DT)
    cubic = result.schemes["cubic"]
    delay = result.schemes["basicdelay"]
    assert delay.summary.mean_throughput_mbps > \
        0.7 * cubic.summary.mean_throughput_mbps
    assert delay.extra["queue"]["mean"] < 0.7 * cubic.extra["queue"]["mean"]
