"""Figure 1: Nimbus matches Cubic's throughput against elastic cross traffic
and achieves much lower delay against inelastic cross traffic."""

from conftest import BENCH_DT

from repro.experiments import fig01_motivation


def test_fig01_motivation():
    result = fig01_motivation.run(
        schemes=("cubic", "basicdelay", "nimbus"),
        phase_duration=25.0, dt=BENCH_DT)
    cubic = result.schemes["cubic"].extra
    delay_cc = result.schemes["basicdelay"].extra
    nimbus = result.schemes["nimbus"].extra

    # Cubic keeps the queue full in both phases (high delay throughout).
    assert cubic["inelastic_delay_ms"] > 40.0
    # The pure delay-control scheme is starved by the elastic Cubic flow.
    assert delay_cc["elastic_throughput"] < 0.5 * cubic["elastic_throughput"]
    # Nimbus competes against the elastic flow (within ~2x of Cubic's share)
    # and keeps the delay low once the cross traffic is inelastic.
    assert nimbus["elastic_throughput"] > 0.5 * cubic["elastic_throughput"]
    assert nimbus["inelastic_delay_ms"] < 0.6 * cubic["inelastic_delay_ms"]
    # Throughput against inelastic traffic is the spare capacity (~24 Mbit/s).
    assert abs(nimbus["inelastic_throughput"] - 24.0) < 8.0
