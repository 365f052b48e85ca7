"""Figure 23 / Appendix D.1: against a low-rate CBR both Copa and Nimbus keep
delay low; against a high-rate CBR Copa misclassifies and suffers high delay
while Nimbus stays low."""

from conftest import BENCH_DT

from repro.experiments import fig23_copa_cbr


def test_fig23_copa_cbr():
    result = fig23_copa_cbr.run(
        cbr_fractions=(0.25, 0.83), duration=40.0, dt=BENCH_DT)
    delays = result.data["mean_queue_delay_ms"]
    # Low-rate CBR: both keep the queue small.
    assert delays["nimbus"][0.25] < 35.0
    assert delays["copa"][0.25] < 35.0
    # High-rate CBR: Copa's delay inflates well beyond Nimbus's.
    assert delays["copa"][0.83] > 1.5 * delays["nimbus"][0.83]
    assert delays["nimbus"][0.83] < 60.0
