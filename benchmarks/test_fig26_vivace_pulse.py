"""Figure 26 / Appendix F: PCC-Vivace looks inelastic at the default 5 Hz
pulses but is classified elastic when the pulses are slowed to 2 Hz."""

import numpy as np
import pytest

from conftest import BENCH_DT

from repro.experiments import fig26_vivace_pulse


@pytest.mark.xfail(strict=True, reason=(
    "the 2 Hz median eta reads 0.84, not above the 5 Hz median 1.55; not "
    "a single-sample artefact: with Vivace's start drawn from the seed, "
    "2 Hz reads below 5 Hz on 6 of 7 seeds, and at 2 Hz the competitor "
    "band (2.3, 3.9) Hz holds Vivace's own probing peak; ROADMAP item 4"))
def test_fig26_vivace_pulse():
    result = fig26_vivace_pulse.run(pulse_frequencies=(5.0, 2.0),
                                    duration=50.0, dt=BENCH_DT)
    etas = result.data["eta_distributions"]
    median_5hz = float(np.median(etas[5.0])) if len(etas[5.0]) else 0.0
    median_2hz = float(np.median(etas[2.0])) if len(etas[2.0]) else 0.0
    # Slower pulses make the slow-reacting Vivace flow look more elastic.
    assert median_2hz > median_5hz
