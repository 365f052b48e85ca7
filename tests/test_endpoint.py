"""Transport endpoint (Flow): emission limits, feedback handling, lifecycle."""

import functools
import gc
import weakref

import pytest

from repro.cc import Bbr, Copa, NewReno, Vegas, Vivace
from repro.cc.base import CongestionControl, NullCC
from repro.cc.cubic import Cubic
from repro.core.nimbus import Nimbus
from repro.runtime.build import make_scheme
from repro.simulator.endpoint import Flow
from repro.simulator.packet import Ack
from repro.simulator.source import BackloggedSource, FiniteSource, PacedSource
from repro.simulator.units import MSS_BYTES
from repro.traffic import PoissonSource
from repro.traffic.video import video_1080p


class WindowOnly(CongestionControl):
    """Fixed window, no pacing."""

    name = "window-only"

    def __init__(self, window):
        super().__init__()
        self.cwnd = window


class RateOnly(CongestionControl):
    """Fixed pacing rate, no window."""

    name = "rate-only"

    def __init__(self, rate):
        super().__init__()
        self.cwnd = None
        self.rate = rate


def started_flow(cc, **kwargs) -> Flow:
    flow = Flow(cc=cc, prop_rtt=0.05, **kwargs)
    flow.flow_id = 0
    flow.start(0.0)
    return flow


class TestEmission:
    def test_window_limits_inflight(self):
        flow = started_flow(WindowOnly(10 * MSS_BYTES))
        chunk = flow.emit(0.01, 0.01)
        assert chunk is not None
        assert chunk.size == pytest.approx(10 * MSS_BYTES)
        # Window is now full: nothing further until an ACK returns.
        assert flow.emit(0.02, 0.01) is None

    def test_pacing_limits_rate(self):
        flow = started_flow(RateOnly(1e6))
        sent = 0.0
        for i in range(1, 101):
            chunk = flow.emit(i * 0.01, 0.01)
            if chunk:
                sent += chunk.size
        assert sent == pytest.approx(1e6 * 1.0, rel=0.1)

    def test_app_limited(self):
        flow = started_flow(WindowOnly(100 * MSS_BYTES),
                            source=PacedSource(rate=1e5))
        chunk = flow.emit(0.01, 0.01)
        assert chunk is not None
        assert chunk.size <= 1e5 * 0.01 + 1e-6

    def test_not_started_does_not_emit(self):
        flow = Flow(cc=WindowOnly(10 * MSS_BYTES), prop_rtt=0.05)
        assert flow.emit(0.01, 0.01) is None

    def test_sequence_numbers_advance(self):
        flow = started_flow(RateOnly(1e6))
        c1 = flow.emit(0.01, 0.01)
        c2 = flow.emit(0.02, 0.01)
        assert c2.seq == pytest.approx(c1.seq + c1.size)

    def test_max_burst_cap(self):
        flow = started_flow(WindowOnly(100 * MSS_BYTES),
                            max_burst_bytes=2 * MSS_BYTES)
        chunk = flow.emit(0.01, 0.01)
        assert chunk.size <= 2 * MSS_BYTES


class TestAccessDelays:
    @pytest.mark.parametrize("prop_rtt", [0.05, 0.03, 0.1, 0.007])
    def test_each_leg_is_half_the_prop_rtt(self, prop_rtt):
        flow = Flow(cc=NullCC(), prop_rtt=prop_rtt)
        assert flow.delay_to_receiver == prop_rtt / 2.0
        assert flow.delay_ack == prop_rtt / 2.0


class TestFeedback:
    def test_ack_frees_window(self):
        flow = started_flow(WindowOnly(10 * MSS_BYTES))
        chunk = flow.emit(0.01, 0.01)
        ack = Ack(flow_id=0, acked_bytes=chunk.size, sent_time=chunk.sent_time,
                  queue_delay=0.0, delivered_time=0.05)
        flow.handle_ack(ack, 0.06)
        assert flow.measurement.inflight == pytest.approx(0.0)
        assert flow.emit(0.07, 0.01) is not None

    def test_ack_updates_measurement(self):
        flow = started_flow(WindowOnly(10 * MSS_BYTES))
        chunk = flow.emit(0.01, 0.01)
        ack = Ack(flow_id=0, acked_bytes=chunk.size, sent_time=chunk.sent_time,
                  queue_delay=0.005, delivered_time=0.06)
        flow.handle_ack(ack, 0.07)
        assert flow.measurement.rtt == pytest.approx(0.06)
        assert flow.measurement.queue_delay == pytest.approx(0.005)

    def test_loss_frees_window_and_counts(self):
        flow = started_flow(WindowOnly(10 * MSS_BYTES))
        chunk = flow.emit(0.01, 0.01)
        flow.handle_loss(chunk.size / 2, 0.1)
        assert flow.measurement.inflight == pytest.approx(chunk.size / 2)
        assert flow.stats.bytes_lost == pytest.approx(chunk.size / 2)

    def test_loss_invokes_cc(self):
        cubic = Cubic()
        flow = started_flow(cubic)
        flow.emit(0.01, 0.01)
        before = cubic.cwnd
        flow.handle_loss(1500, 0.1)
        assert cubic.cwnd < before


class TestLifecycle:
    def test_finite_flow_completes(self):
        flow = started_flow(WindowOnly(100 * MSS_BYTES),
                            source=FiniteSource(3000))
        chunk = flow.emit(0.01, 0.01)
        assert chunk.size == pytest.approx(3000)
        ack = Ack(flow_id=0, acked_bytes=3000, sent_time=chunk.sent_time,
                  queue_delay=0.0, delivered_time=0.05)
        flow.handle_ack(ack, 0.06)
        assert flow.finished
        assert flow.fct == pytest.approx(0.06)

    def test_stop(self):
        flow = started_flow(WindowOnly(10 * MSS_BYTES))
        flow.stop(5.0)
        assert flow.finished
        assert not flow.active
        assert flow.stats.end_time == pytest.approx(5.0)

    def test_a_finished_flow_releases_its_controller_and_source(self):
        flow = started_flow(Cubic(), source=FiniteSource(3000))
        flow.flow_id = 7
        assert repr(flow) == ("Flow(name='cubic', cc='cubic', "
                              "prop_rtt=0.05, id=7)")
        flow.stop(1.0)
        assert flow.cc is None and flow.source is None
        assert flow.emit(1.1, 0.01) is None
        # The label survives; the released controller reads as None.
        assert repr(flow) == "Flow(name='cubic', cc=None, prop_rtt=0.05, id=7)"

    def test_invalid_rtt(self):
        with pytest.raises(ValueError):
            Flow(cc=NullCC(), prop_rtt=0.0)

    def test_sub_byte_remainder_after_a_fractional_loss_finishes(self):
        """The last chunk loses 0.4 B: too little to resend, so forgiven."""
        flow = started_flow(WindowOnly(100 * MSS_BYTES),
                            source=FiniteSource(3000))
        chunk = flow.emit(0.01, 0.01)
        flow.handle_loss(0.4, 0.05)
        assert flow.emit(0.052, 0.002) is None  # under the emission floor
        flow.handle_ack(Ack(flow_id=0, acked_bytes=chunk.size - 0.4,
                            sent_time=chunk.sent_time, queue_delay=0.0,
                            delivered_time=0.05), 0.06)
        assert flow.finished and flow.fct == pytest.approx(0.06)

    def test_sized_flow_stops_on_the_ack_that_leaves_a_byte_in_flight(self):
        flow = started_flow(WindowOnly(100 * MSS_BYTES),
                            source=FiniteSource(3000))
        chunk = flow.emit(0.01, 0.01)
        for acked, now in ((1500.0, 0.06), (1499.0, 0.07)):
            assert not flow.finished
            flow.handle_ack(Ack(flow_id=0, acked_bytes=acked,
                                sent_time=chunk.sent_time, queue_delay=0.0,
                                delivered_time=now), now)
        # 1 byte is still in flight and the source is done within it.
        assert flow.measurement.inflight == 1.0
        assert flow.finished and flow.stats.end_time == 0.07

    def test_a_finished_source_waits_for_its_bytes_in_flight(self):
        class Drained(FiniteSource):
            """Counts as finished from the start: only the bytes in
            flight decide when the flow stops."""

            finished = True

        flow = started_flow(WindowOnly(100 * MSS_BYTES),
                            source=Drained(3000))
        chunk = flow.emit(0.01, 0.01)
        for acked, in_flight in ((2998.0, 2.0), (0.5, 1.5), (0.5, 1.0)):
            assert not flow.finished
            flow.handle_ack(Ack(flow_id=0, acked_bytes=acked,
                                sent_time=chunk.sent_time, queue_delay=0.0,
                                delivered_time=0.06), 0.06)
            assert flow.measurement.inflight == in_flight
        assert flow.finished

    def test_fct_none_while_running(self):
        flow = started_flow(WindowOnly(10 * MSS_BYTES))
        assert flow.fct is None


def paced_cubic() -> Cubic:
    cubic = Cubic()
    cubic.rate = 1e6
    return cubic


class TestWaiting:
    """Which flows are marked waiting by an empty ``emit`` — worked out from
    the algorithm and source classes, not declared by them."""

    @staticmethod
    def blocked(cc, source) -> Flow:
        """A started flow just after an ``emit`` that found no budget."""
        flow = started_flow(cc, source=source)
        flow.source.available = lambda now: 0.0  # nothing to send this tick
        assert flow.emit(0.01, 0.002) is None
        return flow

    @pytest.mark.parametrize("make_cc", [Cubic, NewReno, Vegas])
    @pytest.mark.parametrize("make_source",
                             [BackloggedSource, lambda: FiniteSource(9000)])
    def test_window_clocked_over_untimed_source_waits(self, make_cc,
                                                      make_source):
        assert self.blocked(make_cc(), make_source())._waiting

    @pytest.mark.parametrize("make_cc, make_source", [
        (lambda: Nimbus(mu=6e6), BackloggedSource),   # on_control_tick: wraps
        (Bbr, BackloggedSource),                      # on_control_tick
        (Copa, BackloggedSource),
        (NullCC, lambda: PoissonSource(1e5)),         # advance: time-fed
        (Cubic, lambda: PacedSource(1e5)),
        (Cubic, video_1080p),
        (paced_cubic, BackloggedSource),              # pace credit accrues
        (lambda: RateOnly(1e6), BackloggedSource),
    ])
    def test_paced_wrapping_or_time_fed_never_waits(self, make_cc,
                                                    make_source):
        assert not self.blocked(make_cc(), make_source())._waiting

    def test_window_limited_flow_waits_until_feedback(self):
        flow = started_flow(WindowOnly(10 * MSS_BYTES),
                            source=FiniteSource(100 * MSS_BYTES))
        chunk = flow.emit(0.01, 0.002)
        assert not flow._waiting            # it sent: ask again next tick
        assert flow.emit(0.012, 0.002) is None and flow._waiting
        flow.handle_loss(MSS_BYTES, 0.05)
        assert not flow._waiting
        assert flow.emit(0.052, 0.002) is not None  # one segment of window
        assert flow.emit(0.054, 0.002) is None and flow._waiting
        flow.handle_ack(Ack(flow_id=0, acked_bytes=chunk.size - MSS_BYTES,
                            sent_time=chunk.sent_time, queue_delay=0.0,
                            delivered_time=0.05), 0.06)
        assert not flow._waiting

    def test_a_pacing_rate_acquired_later_ends_the_waiting(self):
        cubic = Cubic()
        flow = self.blocked(cubic, BackloggedSource())
        assert flow._waiting
        flow.handle_ack(Ack(flow_id=0, acked_bytes=0.0, sent_time=0.0,
                            queue_delay=0.0, delivered_time=0.01), 0.02)
        cubic.rate = 1e6
        assert flow.emit(0.03, 0.002) is None and not flow._waiting

    def test_stop_clears_the_mark(self):
        flow = self.blocked(Cubic(), BackloggedSource())
        flow.stop(1.0)
        assert not flow._waiting and flow.finished


#: Every scheme a driver builds by name (``copa`` is Copa), plus the
#: classes no name covers.
_CONTROLLERS = {
    **{name: functools.partial(make_scheme, name, 1e6)
       for name in ("nimbus", "basicdelay", "cubic", "vegas", "copa", "bbr")},
    "Vivace": Vivace, "NullCC": NullCC,
}


class TestNoOwnerCycle:
    """A controller holds its flow's measurement, not the flow: with the
    collector off, dropping the flow frees the controller at once."""

    @pytest.mark.parametrize("name", sorted(_CONTROLLERS))
    def test_del_flow_frees_the_controller(self, name):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            flow = started_flow(_CONTROLLERS[name](),
                                max_burst_bytes=10 * MSS_BYTES)
            chunk = flow.emit(0.01, 0.002)
            flow.handle_ack(Ack(flow_id=0, acked_bytes=chunk.size,
                                sent_time=chunk.sent_time, queue_delay=0.0,
                                delivered_time=0.04), 0.06)
            flow.emit(0.062, 0.002)
            controller = weakref.ref(flow.cc)
            del flow
            assert controller() is None
        finally:
            if was_enabled:
                gc.enable()
