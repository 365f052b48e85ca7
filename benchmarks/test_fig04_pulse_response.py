"""Figure 4: elastic cross traffic reacts to rate pulses, inelastic does not."""

from conftest import BENCH_DT

from repro.experiments import fig04_pulse_response


def test_fig04_pulse_response():
    result = fig04_pulse_response.run(duration=25.0, dt=BENCH_DT)
    elastic = result.data["elastic"]
    inelastic = result.data["inelastic"]
    # The elastic cross traffic's estimated rate oscillates with the pulses
    # (visible as a much larger eta / peak at fp than for inelastic traffic).
    assert elastic["eta"] > 1.5 * inelastic["eta"]
    assert elastic["peak_at_fp"] > inelastic["peak_at_fp"]
