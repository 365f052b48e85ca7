"""The Nimbus controller: detection, mode switching, pulsing, multi-flow roles."""

import copy

import numpy as np
import pytest

from repro.cc import (
    BasicDelay,
    Bbr,
    Copa,
    Cubic,
    FixedWindow,
    NewReno,
    NullCC,
    Vegas,
    Vivace,
)
from repro.core.elasticity import FFT_DURATION, THRESHOLD
from repro.core.multiflow import ROLE_PULSER, ROLE_WATCHER
from repro.core.nimbus import MODE_COMPETITIVE, MODE_DELAY, Nimbus, _window
from repro.core.pulses import SymmetricSinusoidPulse
from repro.runtime import make_network
from repro.simulator import MSS_BYTES, Flow, mbps_to_bytes_per_sec
from repro.simulator.endpoint import control_period
from repro.traffic import PoissonSource

MU_24 = mbps_to_bytes_per_sec(24)


def run_nimbus(cross: str, duration: float = 35.0, link_mbps: float = 24,
               **nimbus_kwargs):
    """Run one Nimbus flow against the given cross traffic kind."""
    network = make_network(link_mbps=link_mbps, buffer_ms=100, dt=0.004)
    mu = mbps_to_bytes_per_sec(link_mbps)
    nimbus = Nimbus(mu=mu, **nimbus_kwargs)
    flow = Flow(cc=nimbus, prop_rtt=0.05, name="nimbus")
    network.add_flow(flow)
    if cross == "elastic":
        network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="cross"))
    elif cross == "inelastic":
        network.add_flow(Flow(cc=NullCC(), prop_rtt=0.05,
                              source=PoissonSource(0.5 * mu, seed=2),
                              name="cross"))
    network.run(duration)
    return network, nimbus


class TestConstruction:
    def test_defaults(self):
        nimbus = Nimbus(mu=MU_24)
        assert nimbus.mode == MODE_DELAY
        assert isinstance(nimbus.competitive_cc, Cubic)

    def test_custom_inner_algorithms(self):
        nimbus = Nimbus(mu=MU_24, delay=Vegas())
        assert isinstance(nimbus.delay_cc, Vegas)

    def test_custom_pulse_shape(self):
        nimbus = Nimbus(mu=MU_24, pulse_shape_factory=SymmetricSinusoidPulse)
        assert isinstance(nimbus.current_pulse, SymmetricSinusoidPulse)

    def test_mu_property(self):
        assert Nimbus(mu=MU_24).mu == pytest.approx(MU_24)
        assert Nimbus(mu=None).mu >= 1.0


@pytest.mark.slow
class TestDetectionIntegration:
    def test_elastic_cross_traffic_detected(self):
        network, nimbus = run_nimbus("elastic")
        etas = [eta for t, eta in nimbus.eta_history
                if t > 15.0 and np.isfinite(eta)]
        # The elasticity metric sits around/above the threshold against a
        # backlogged Cubic flow (well above the ~0.3-0.5 seen for inelastic
        # traffic), and the flow ends up in competitive mode for the
        # majority of the post-detection period.
        assert float(np.median(etas)) > 1.0
        times, modes = network.recorder.mode_series("nimbus")
        active = [m for t, m in zip(times, modes) if t > 15.0 and m]
        assert active.count(MODE_COMPETITIVE) > 0.5 * len(active)

    def test_inelastic_cross_traffic_detected(self):
        _, nimbus = run_nimbus("inelastic")
        assert nimbus.last_eta < THRESHOLD
        assert nimbus.mode == MODE_DELAY

    def test_low_delay_against_inelastic(self):
        network, _ = run_nimbus("inelastic")
        _, qd = network.recorder.link_queue_delay_series()
        assert float(np.mean(qd[len(qd) // 2:])) < 40.0

    def test_fair_share_against_elastic(self):
        network, _ = run_nimbus("elastic", duration=40.0)
        nimbus_tput = network.recorder.mean_throughput("nimbus", start=15.0)
        cross_tput = network.recorder.mean_throughput("cross", start=15.0)
        # Competitive to within a factor of ~2.5 (a pure delay controller is
        # starved to well under a third of the Cubic competitor's rate).
        assert nimbus_tput > 0.4 * cross_tput

    def test_grabs_spare_capacity_when_inelastic(self):
        network, _ = run_nimbus("inelastic")
        tput = network.recorder.mean_throughput("nimbus", start=15.0)
        assert tput == pytest.approx(12.0, rel=0.3)

    def test_eta_history_recorded(self):
        _, nimbus = run_nimbus("inelastic", duration=20.0)
        assert len(nimbus.eta_history) > 10
        times = [t for t, _ in nimbus.eta_history]
        assert times == sorted(times)

    def test_mu_estimation_without_configuration(self):
        network = make_network(link_mbps=24, buffer_ms=100, dt=0.004)
        nimbus = Nimbus(mu=None)
        network.add_flow(Flow(cc=nimbus, prop_rtt=0.05, name="nimbus"))
        network.run(20.0)
        assert nimbus.mu == pytest.approx(MU_24, rel=0.25)
        assert nimbus.delay_cc.min_rate == \
            BasicDelay.MIN_RATE_FRACTION * nimbus.mu


class TestRateAndPulsing:
    def test_rate_is_pulsed_in_single_flow_mode(self):
        network, nimbus = run_nimbus(cross=None, duration=10.0)
        # The pacing rate must reflect the pulse: sample the pulse shape.
        offsets = [nimbus.current_pulse.offset_fraction(t / 100.0)
                   for t in range(100)]
        assert max(offsets) > 0.2
        assert min(offsets) < 0.0

    def test_rate_floor_positive(self):
        network, nimbus = run_nimbus(cross=None, duration=5.0)
        assert nimbus.rate is not None and nimbus.rate > 0

    def test_switch_to_competitive_restores_rate(self):
        nimbus = Nimbus(mu=MU_24)
        flow = Flow(cc=nimbus, prop_rtt=0.05)
        flow.flow_id = 0
        flow.start(0.0)
        nimbus.measurement.on_ack(0.0, 1500, 0.05, 0.0)
        nimbus._record_rate(0.0, 0.5 * MU_24)
        nimbus._record_rate(5.0, 0.1 * MU_24)
        nimbus._switch_mode(MODE_COMPETITIVE, 5.0)
        # The competitive window is seeded from the max of the rate 5 s ago
        # and now, i.e. at least 0.5*mu*rtt.
        assert nimbus.competitive_cc.cwnd >= 0.5 * MU_24 * 0.05 * 0.99

    def test_switch_to_delay_sets_rate(self):
        nimbus = Nimbus(mu=MU_24)
        flow = Flow(cc=nimbus, prop_rtt=0.05)
        flow.flow_id = 0
        flow.start(0.0)
        nimbus.measurement.on_ack(0.0, 1500, 0.05, 0.0)
        nimbus.mode = MODE_COMPETITIVE
        nimbus.competitive_cc.cwnd = 0.5 * MU_24 * 0.05
        nimbus._switch_mode(MODE_DELAY, 1.0)
        assert nimbus.delay_cc.rate == pytest.approx(0.5 * MU_24, rel=0.2)


# --------------------------------------------------------------------- #
# The hand-off hook against the attribute poking it replaced, kept here
# as the reference: what ``Nimbus._switch_mode`` did to the inner
# algorithm it switched *to*, by probing for privates.
# --------------------------------------------------------------------- #
def _old_hand_off_to_competitive(cc, rate, rtt):
    cwnd = max(rate * rtt, 4 * MSS_BYTES)
    cc.cwnd = cwnd
    if hasattr(cc, "ssthresh"):
        cc.ssthresh = cwnd
    if hasattr(cc, "_epoch_start"):
        cc._epoch_start = None
    if hasattr(cc, "w_max"):
        cc.w_max = cwnd


def _old_hand_off_to_delay(cc, rate, rtt):
    if isinstance(cc, BasicDelay):
        cc.rate = float(min(max(rate, cc.min_rate), 1.2 * cc.mu))  # set_rate
    elif cc.cwnd is not None:
        cc.cwnd = max(rate * rtt, 4 * MSS_BYTES)


WINDOW_BASED = [Cubic, NewReno, Vegas, Copa, Bbr, FixedWindow]
#: What callers pass as ``delay=``, plus the rate-based algorithms.
DELAY_CAPABLE = [Vegas, Copa, lambda: Copa(mode_switching=False), Bbr,
                 FixedWindow, lambda: BasicDelay(MU_24), Vivace]
OPERATING_POINTS = [(0.5 * MU_24, 0.05), (0.0, 0.05), (100 * MU_24, 0.2),
                    (1.0, 1e-3)]


def _worn_in(make):
    """An algorithm that has seen a loss, so its loss state is not the
    pristine state a hand-off would happen to restore anyway."""
    cc = make()
    flow = Flow(cc=cc, prop_rtt=0.05)
    flow.flow_id = 0
    flow.start(0.0)
    cc.measurement.on_ack(0.0, 1500, 0.05, 0.0)
    cc.cwnd = None if cc.cwnd is None else 40.0 * MSS_BYTES
    cc.on_loss(MSS_BYTES, 1.0)
    return cc


class TestTakeOver:
    @pytest.mark.parametrize("rate,rtt", OPERATING_POINTS)
    @pytest.mark.parametrize("make", WINDOW_BASED)
    def test_as_competitive_mode(self, make, rate, rtt):
        new, old = _worn_in(make), _worn_in(make)
        new.flow = old.flow = None
        assert vars(new) == vars(old)
        new.take_over(rate, rtt)
        _old_hand_off_to_competitive(old, rate, rtt)
        assert vars(new) == vars(old)
        assert new.cwnd == max(rate * rtt, 4 * MSS_BYTES)

    @pytest.mark.parametrize("rate,rtt", OPERATING_POINTS)
    @pytest.mark.parametrize("make", DELAY_CAPABLE)
    def test_as_delay_mode(self, make, rate, rtt):
        new, old = _worn_in(make), _worn_in(make)
        new.flow = old.flow = None
        new.take_over(rate, rtt)
        _old_hand_off_to_delay(old, rate, rtt)
        assert vars(new) == vars(old)

    def test_cubic_starts_a_fresh_epoch(self):
        cubic = _worn_in(Cubic)
        cubic._epoch_start = 0.5
        cubic.take_over(0.5 * MU_24, 0.05)
        assert cubic._epoch_start is None
        assert cubic.ssthresh == cubic.w_max == cubic.cwnd == 0.5 * MU_24 * 0.05

    def test_switch_mode_hands_over_through_the_hook_only(self):
        """Any algorithm is a Nimbus mode by implementing one method."""
        class Recording(NullCC):
            def take_over(self, rate, rtt):
                self.taken = (rate, rtt)

        nimbus = Nimbus(mu=MU_24, competitive=Recording(),
                        delay=Recording())
        flow = Flow(cc=nimbus, prop_rtt=0.05)
        flow.flow_id = 0
        flow.start(0.0)
        nimbus.measurement.on_ack(0.0, 1500, 0.05, 0.0)
        nimbus._record_rate(0.0, 0.5 * MU_24)
        nimbus._switch_mode(MODE_COMPETITIVE, 5.0)
        assert nimbus.competitive_cc.taken == (0.5 * MU_24, 0.05)
        assert not hasattr(nimbus.delay_cc, "taken")
        before = copy.copy(vars(nimbus.competitive_cc))
        nimbus._switch_mode(MODE_DELAY, 6.0)
        rate, rtt = nimbus.delay_cc.taken
        assert rtt == 0.05 and rate > 0
        assert vars(nimbus.competitive_cc) == before


# --------------------------------------------------------------------- #
# One spectrum per window
# --------------------------------------------------------------------- #
def _ffts_per_detection(monkeypatch, flows, duration):
    """Run ``flows`` (name -> Nimbus) together at ``dt=0.004`` and return,
    per name and per the role the flow held when the interval began, one
    ``(samples held, sizes of the np.fft.rfft calls)`` pair per detection
    interval."""
    sizes = []
    real_rfft = np.fft.rfft

    def counting_rfft(a, *args, **kwargs):
        sizes.append(len(a))
        return real_rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting_rfft)
    seen = {name: {ROLE_PULSER: [], ROLE_WATCHER: []} for name in flows}

    def counted(name, nimbus):
        detect = nimbus._detect

        def wrapper(now, spacing):
            before, role = len(sizes), nimbus.role
            detect(now, spacing)
            seen[name][role].append((len(nimbus.estimator),
                                     tuple(sizes[before:])))
        return wrapper

    network = make_network(link_mbps=24, buffer_ms=100, dt=0.004)
    for name, nimbus in flows.items():
        nimbus._detect = counted(name, nimbus)
        network.add_flow(Flow(cc=nimbus, prop_rtt=0.05, name=name))
    network.run(duration)
    return seen


def _first_read(intervals):
    """Samples held at the first interval that transformed anything."""
    return min(held for held, ffts in intervals if ffts)


class TestOneSpectrumPerWindow:
    """One FFT per window read, and one window rule for every path: at 4 ms
    ticks the 10 ms samples land 12 ms apart, so nothing is read before
    ``z_series(5 s)`` holds its full 500 samples, and then each reading is
    the trailing 5 s, 417 samples."""

    def test_single_flow_interval_costs_one_fft(self, monkeypatch):
        seen = _ffts_per_detection(monkeypatch, {"n": Nimbus(mu=MU_24)}, 7.0)
        intervals = seen["n"][ROLE_PULSER]
        assert {ffts for _, ffts in intervals} == {(), (417,)}
        assert _first_read(intervals) == 500

    def test_pulser_costs_two_and_watcher_one(self, monkeypatch):
        pulser = Nimbus(mu=MU_24, multi_flow=True, seed=0)
        pulser.role = ROLE_PULSER  # elected before the run starts
        watcher = Nimbus(mu=MU_24, multi_flow=True, seed=1)
        seen = _ffts_per_detection(
            monkeypatch, {"pulser": pulser, "watcher": watcher}, 7.0)
        # The pulser's z and r (eta and the conflict check read one z
        # spectrum); the watcher's r, read at both agreed frequencies.
        pulsing = seen["pulser"][ROLE_PULSER]
        assert {ffts for _, ffts in pulsing} == {(), (417, 417)}
        assert _first_read(pulsing) == 500
        watching = seen["watcher"][ROLE_WATCHER]
        assert {ffts for _, ffts in watching} == {(), (417,)}
        assert _first_read(watching) == 500
        assert len(pulser.eta_history) > 10


class TestOneControlClock:
    """z is sampled once per control tick, so the spacing every reading
    uses is the endpoint's ``control_period(dt)``, whatever the tick: the
    10 ms gate lands every 10 ms on a 1, 2 or 5 ms grid and every 12 ms on
    a 3 or 4 ms one, where the trailing 5 s is 417 of the row's 500."""

    @pytest.mark.parametrize("dt, window", [
        (0.001, 500), (0.002, 500), (0.003, 417), (0.004, 417),
        (0.005, 500)])
    def test_samples_are_one_control_period_apart(self, dt, window):
        network = make_network(link_mbps=24, buffer_ms=100, dt=dt)
        nimbus = Nimbus(mu=MU_24)
        network.add_flow(Flow(cc=nimbus, prop_rtt=0.05, name="nimbus"))
        network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="cross"))
        network.run(6.5)
        period = control_period(dt)
        gaps = np.diff(nimbus.estimator.times())
        assert gaps.size > 500
        assert np.all(np.abs(gaps - period) <= 1e-9)
        row = nimbus.estimator.z_series(FFT_DURATION)
        assert len(row) == 500
        assert len(_window(row, period)) == window


@pytest.mark.slow
class TestMultiFlow:
    def test_roles_and_fair_share(self):
        network = make_network(link_mbps=24, buffer_ms=100, dt=0.004)
        flows = []
        for i in range(2):
            nimbus = Nimbus(mu=MU_24, multi_flow=True, seed=i)
            flow = Flow(cc=nimbus, prop_rtt=0.05, name=f"n{i}")
            network.add_flow(flow)
            flows.append(flow)
        network.run(40.0)
        rates = [network.recorder.mean_throughput(f"n{i}", start=20.0)
                 for i in range(2)]
        assert sum(rates) == pytest.approx(24.0, rel=0.2)
        roles = {f.cc.role for f in flows}
        # At most one pulser at the end of the run.
        assert sum(1 for f in flows if f.cc.role == "pulser") <= 1
        assert roles  # non-empty sanity

    def test_watchers_stay_in_delay_mode_without_cross_traffic(self):
        network = make_network(link_mbps=24, buffer_ms=100, dt=0.004)
        for i in range(2):
            nimbus = Nimbus(mu=MU_24, multi_flow=True, seed=10 + i)
            network.add_flow(Flow(cc=nimbus, prop_rtt=0.05, name=f"n{i}"))
        network.run(40.0)
        _, qd = network.recorder.link_queue_delay_series()
        assert float(np.mean(qd[len(qd) // 2:])) < 50.0
