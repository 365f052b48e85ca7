"""Figure 25 / Appendix E.1: detection accuracy across pulse sizes and Nimbus
link shares stays high, and larger pulses do not hurt."""

from conftest import BENCH_DT

from repro.experiments import fig25_multifactor


def test_fig25_multifactor():
    result = fig25_multifactor.run(
        pulse_sizes=(0.125, 0.25), link_rates_mbps=(96.0,),
        nimbus_shares=(0.5,), traffic_kind="mix",
        duration=40.0, dt=BENCH_DT)
    accuracy = result.data["accuracy"]
    assert result.data["mean_accuracy"] > 0.55
    large_pulse = accuracy[(0.25, 96.0, 0.5)]
    small_pulse = accuracy[(0.125, 96.0, 0.5)]
    assert large_pulse >= small_pulse - 0.15
