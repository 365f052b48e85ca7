"""Figure 17: several Nimbus flows take their aggregate fair share against
elastic cross traffic and keep delays low against inelastic cross traffic."""

import pytest

from conftest import BENCH_DT

from repro.experiments import fig17_multiflow_cross


@pytest.mark.xfail(strict=True, reason=(
    "first assertion: every elected pulser demotes itself within 0.05 s "
    "of its election (9 of 9 at seed 0), so the elastic-phase "
    "aggregate reads 11.8 Mbit/s where > 48 is needed; ROADMAP item 11 "
    "(a lone pulser demotes itself)"))
def test_fig17_multiflow_cross():
    result = fig17_multiflow_cross.run(n_flows=3, phase_duration=40.0,
                                       warmup=20.0, dt=BENCH_DT)
    data = result.data
    # Aggregate throughput within a factor of ~2 of the fair share in the
    # elastic phase, and at least the spare capacity in the inelastic phase.
    assert data["aggregate_elastic_mean"] > 0.5 * data["fair_share_elastic_mbps"]
    assert data["aggregate_inelastic_mean"] > 0.6 * data["fair_share_inelastic_mbps"]
    # Delays drop when the cross traffic becomes inelastic.
    assert data["delay_inelastic_mean_ms"] < data["delay_elastic_mean_ms"]
