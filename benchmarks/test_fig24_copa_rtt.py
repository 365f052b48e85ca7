"""Figure 24 / Appendix D.2: with an equal-RTT NewReno competitor both schemes
compete; with a 4x-RTT competitor Copa stays in default mode and loses
throughput while Nimbus keeps its share."""

from conftest import BENCH_DT

from repro.experiments import fig24_copa_rtt


def test_fig24_copa_rtt():
    result = fig24_copa_rtt.run(rtt_ratios=(1.0, 4.0),
                                duration=50.0, dt=BENCH_DT)
    tput = result.data["throughput"]
    fair = result.data["fair_share_mbps"]
    # Equal RTT: both get a meaningful share.
    assert tput["nimbus"][1.0] > 0.4 * fair
    # 4x RTT competitor: Nimbus retains at least as much as Copa, and a
    # healthy fraction of the fair share (RTT bias works in its favour).
    assert tput["nimbus"][4.0] >= tput["copa"][4.0] * 0.9
    assert tput["nimbus"][4.0] > 0.5 * fair
