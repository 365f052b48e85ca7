"""Figures 18/19: across emulated Internet path profiles, Nimbus achieves
throughput comparable to Cubic/BBR with lower delay."""

import numpy as np

from conftest import BENCH_DT

from repro.experiments import internet_paths


def test_fig18_internet_paths():
    profiles = internet_paths.DEFAULT_PROFILES[:3]
    result = internet_paths.run(profiles=profiles,
                                schemes=("nimbus", "cubic", "bbr", "vegas"),
                                duration=30.0, dt=BENCH_DT)
    per_path = result.data["per_path"]
    tput_ratio = []
    delay_gap = []
    for path, schemes in per_path.items():
        tput_ratio.append(schemes["nimbus"]["throughput_mbps"]
                          / max(schemes["cubic"]["throughput_mbps"], 1e-9))
        delay_gap.append(schemes["cubic"]["mean_delay_ms"]
                         - schemes["nimbus"]["mean_delay_ms"])
    # Throughput comparable to Cubic on average across paths...
    assert float(np.mean(tput_ratio)) > 0.7
    # ...with lower delay on at least some paths and never dramatically worse.
    assert max(delay_gap) > 0.0
    assert float(np.mean(delay_gap)) > -10.0
