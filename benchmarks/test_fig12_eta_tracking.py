"""Figure 12: the elasticity metric tracks the true elastic byte fraction of
WAN cross traffic; overall mode accuracy is high."""

import pytest

from conftest import BENCH_DT

from repro.experiments import fig12_eta_tracking


@pytest.mark.xfail(strict=True, reason=(
    "accuracy reads 0.102 (bound > 0.5): the WAN truth label is never "
    "'inelastic', so accuracy is just time_in_competitive and the claim is "
    "not under test; ROADMAP item 2(iii) (WAN workload)"))
def test_fig12_eta_tracking():
    result = fig12_eta_tracking.run(duration=60.0, truth_threshold=0.5,
                                    dt=BENCH_DT)
    assert result.data["accuracy"] > 0.5
    assert len(result.data["eta_values"]) > 100
