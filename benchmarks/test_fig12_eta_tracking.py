"""Figure 12: the elasticity metric tracks the true elastic byte fraction of
WAN cross traffic; overall mode accuracy is high."""

import pytest

from conftest import BENCH_DT

from repro.experiments import fig12_eta_tracking


@pytest.fixture(scope="module")
def result():
    return fig12_eta_tracking.run(duration=60.0, truth_threshold=0.5,
                                  dt=BENCH_DT)


@pytest.mark.xfail(strict=True, reason=(
    "accuracy reads 0.102 (bound > 0.5): the WAN truth label is never "
    "'inelastic', so accuracy is just time_in_competitive and the claim is "
    "not under test (test_truth_is_never_inelastic checks it); ROADMAP "
    "item 2(iii) (WAN workload)"))
def test_fig12_eta_tracking(result):
    assert result.data["accuracy"] > 0.5
    assert len(result.data["eta_values"]) > 100


def test_truth_is_never_inelastic(result):
    """The xfail's cause, and it holds while the cause stands: the truth
    label is elastic in every scored bin, so the accuracy Nimbus earns is
    exactly the share of time it spends in competitive mode."""
    extra = result.schemes["nimbus"].extra
    assert extra["truth_elastic_fraction"] == 1.0
    assert extra["accuracy"] == extra["time_in_competitive"]
