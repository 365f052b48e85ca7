"""Figure 22 / Appendix C: competing against BBR, Nimbus's throughput tracks
Cubic's across buffer sizes."""

import numpy as np
import pytest

from conftest import BENCH_DT

from repro.core.elasticity import pulse_sent
from repro.core.pulses import AsymmetricSinusoidPulse
from repro.experiments import fig04_pulse_response, fig22_bbr_compete

MULTIPLIERS = (2.0, 4.0)


@pytest.fixture(scope="module")
def result():
    return fig22_bbr_compete.run(buffer_bdp_multipliers=MULTIPLIERS,
                                 duration=40.0, dt=BENCH_DT)


@pytest.mark.xfail(strict=True, reason=(
    "against the same BBR flow Nimbus reads 4.3 Mbit/s where Cubic gets "
    "26.7 (2x BDP) and 49.5 (4x BDP), bound > 0.4x; cause: the window cap "
    "2*base*rtt + 8 MSS is sized from a ~4 Mbit/s base rate, so it clips "
    "the up-pulse and BBR's answer to the pulse cannot show "
    "(test_nimbus_sends_a_clipped_pulse checks it); ROADMAP item 1"))
def test_fig22_bbr_compete(result):
    throughput = result.data["throughput"]
    for multiplier, per_scheme in throughput.items():
        nimbus, cubic = per_scheme["nimbus"], per_scheme["cubic"]
        # Same ballpark as Cubic for every buffer size (the paper's claim).
        assert nimbus > 0.4 * cubic
        assert nimbus < 2.5 * max(cubic, 1e-9)


def test_nimbus_sends_a_clipped_pulse(result):
    """The xfail's cause: against BBR, under half as much of the scheduled
    pulse leaves Nimbus as leaves it against Cubic in Fig. 4."""
    elastic = fig04_pulse_response.run(duration=25.0,
                                       dt=BENCH_DT).data["elastic"]
    times = np.asarray(elastic["times"])
    after = times >= 8.0
    _, against_cubic = pulse_sent(times[after],
                                  np.asarray(elastic["s_mbps"])[after],
                                  AsymmetricSinusoidPulse(5.0), 96.0)
    for multiplier in MULTIPLIERS:
        extra = result.schemes[f"nimbus@{multiplier}bdp"].extra
        assert extra["pulse_sent_ratio"] < 0.5 * against_cubic, multiplier
        assert result.schemes[f"cubic@{multiplier}bdp"].extra[
            "pulse_sent_ratio"] is None
