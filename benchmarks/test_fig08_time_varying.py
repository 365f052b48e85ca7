"""Figure 8: under time-varying cross traffic Nimbus tracks its fair share
with low delay during inelastic periods, unlike Cubic (always high delay)."""

from conftest import BENCH_DT

from repro.experiments import fig08_time_varying


def test_fig08_time_varying():
    # A compressed version of the paper's schedule: inelastic+elastic mix,
    # purely elastic, purely inelastic.
    schedule = ((16, 1), (0, 2), (32, 0), (16, 0))
    result = fig08_time_varying.run(
        schemes=("nimbus", "cubic"), schedule=schedule,
        phase_duration=20.0, dt=BENCH_DT)
    nimbus = result.schemes["nimbus"]
    cubic = result.schemes["cubic"]
    # Both schemes deliver broadly comparable throughput overall (the
    # reproduction's Nimbus gives up ~1/3 of Cubic's throughput in exchange
    # for roughly half the delay on this compressed schedule)...
    assert nimbus.summary.mean_throughput_mbps > \
        0.6 * cubic.summary.mean_throughput_mbps
    # ...but Nimbus's queueing delay is clearly lower (it spends the
    # inelastic periods in delay-control mode).
    assert nimbus.extra["queue"]["mean"] < 0.75 * cubic.extra["queue"]["mean"]
    # The detector tracks the schedule's ground truth reasonably well.
    assert nimbus.extra["mode_accuracy"] > 0.6
