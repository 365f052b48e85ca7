"""Figure 11: with 1080p (inelastic) video cross traffic Nimbus matches
Cubic's throughput at lower delay; with 4K (elastic) video Vegas collapses
while Nimbus stays competitive."""

from conftest import BENCH_DT

from repro.experiments import fig11_video


def test_fig11_video():
    result = fig11_video.run(
        schemes=("nimbus", "cubic", "vegas"),
        video_kinds=("4k", "1080p"), duration=45.0, dt=BENCH_DT)
    s = result.schemes
    # 1080p (app-limited, inelastic): similar throughput, lower delay.
    assert s["nimbus@1080p"].summary.mean_throughput_mbps > \
        0.7 * s["cubic@1080p"].summary.mean_throughput_mbps
    assert s["nimbus@1080p"].extra["queue"]["mean"] < \
        0.8 * s["cubic@1080p"].extra["queue"]["mean"]
    # 4K (network-limited, elastic): Vegas gets starved, Nimbus does not.
    assert s["vegas@4k"].summary.mean_throughput_mbps < \
        0.6 * s["nimbus@4k"].summary.mean_throughput_mbps
