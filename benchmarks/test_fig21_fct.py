"""Figure 21 / Appendix B: cross-flow completion times are no worse under
Nimbus than under Cubic for short flows, and Vegas (which cedes bandwidth)
gives the best cross-flow FCTs."""

from conftest import BENCH_DT

from repro.experiments import fig21_fct


def test_fig21_fct():
    result = fig21_fct.run(schemes=("nimbus", "cubic", "vegas"),
                           duration=50.0, dt=BENCH_DT)
    normalized = result.data["normalized_p95"]
    # Short-flow bins: Cubic's p95 FCT is at least as large as Nimbus's.
    short_bins = [label for label in ("15KB", "150KB")
                  if normalized["cubic"].get(label, 0) > 0]
    assert short_bins, "no short cross flows completed"
    assert any(normalized["cubic"][label] >= 0.9 for label in short_bins)
    # Vegas is the gentlest on cross traffic.
    assert all(normalized["vegas"][label] <= normalized["cubic"][label] + 0.5
               for label in short_bins)
