"""DASH-like adaptive video cross traffic (§8.1, Fig. 11 of the paper).

A DASH client downloads the video in segments of fixed playback duration,
choosing a bitrate from a ladder according to how full its playback buffer
is (a simple buffer-based adaptation rule).  Two behaviours matter for the
paper's experiment:

* a **4K** stream whose top bitrates exceed its fair share of the 48 Mbit/s
  link is effectively network-limited — it always has another segment to
  fetch and its transport (Cubic) ramps aggressively, so it acts as
  *elastic* cross traffic;
* a **1080p** stream whose ladder tops out well below the fair share spends
  most of its time idle between segment downloads — it is
  application-limited and acts as *inelastic* cross traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..simulator.source import Source
from ..simulator.units import mbps_to_bytes_per_sec

#: Bitrate ladders in Mbit/s, loosely modelled on common DASH encodings.
LADDER_4K_MBPS = (10.0, 16.0, 25.0, 40.0, 60.0)
LADDER_1080P_MBPS = (1.5, 3.0, 4.5, 6.0, 8.0)

#: Playback seconds per segment; buffered seconds at which playback starts
#: and above which the client stops fetching.
SEGMENT_DURATION = 2.0
STARTUP_BUFFER = 4.0
MAX_BUFFER = 20.0
#: Buffer levels (seconds) at which the client steps up / down one rung.
UPSWITCH_BUFFER = 10.0
DOWNSWITCH_BUFFER = 5.0


@dataclass
class VideoConfig:
    """Parameters of a DASH client."""

    ladder_mbps: Sequence[float] = LADDER_4K_MBPS


class DashVideoSource(Source):
    """Buffer-based adaptive video source.

    The source exposes segment bytes to the transport one segment at a
    time; a new segment is requested when the previous one has been fully
    delivered and the playback buffer has room.  Playback drains the buffer
    in real time once the startup threshold is reached.
    """

    def __init__(self, config: VideoConfig | None = None) -> None:
        self.config = config if config is not None else VideoConfig()
        self._quality_index = 0
        self._buffer_seconds = 0.0
        self._playing = False
        self._segment_remaining = 0.0
        self._segment_unsent = 0.0
        self._downloading = False
        # Deliveries and losses reported between segments are parked here and
        # settled against the next segment, so no bytes are ever lost from
        # the accounting (losses during a hand-over otherwise deadlock the
        # download).
        self._pending_delivered = 0.0
        self._pending_lost = 0.0
        self.segments_downloaded = 0
        self.quality_history: List[int] = []
        self.rebuffer_time = 0.0

    # ------------------------------------------------------------------ #
    # Source interface
    # ------------------------------------------------------------------ #
    def advance(self, now: float, dt: float) -> None:
        # Playback drains the buffer.
        if self._playing:
            if self._buffer_seconds > 0:
                self._buffer_seconds = max(0.0, self._buffer_seconds - dt)
            else:
                self.rebuffer_time += dt
                self._playing = False
        elif self._buffer_seconds >= STARTUP_BUFFER:
            self._playing = True

        if not self._downloading and self._buffer_seconds < MAX_BUFFER:
            self._start_segment()

    def available(self, now: float) -> float:
        return self._segment_unsent if self._downloading else 0.0

    def consume(self, nbytes: float, now: float) -> None:
        self._segment_unsent = max(0.0, self._segment_unsent - nbytes)

    def on_delivered(self, nbytes: float, now: float) -> None:
        self._pending_delivered += nbytes
        self._settle()

    def on_lost(self, nbytes: float, now: float) -> None:
        self._pending_lost += nbytes
        self._settle()

    def _settle(self) -> None:
        """Apply parked deliveries/losses to the segment being downloaded."""
        if not self._downloading:
            return
        if self._pending_lost > 0:
            # Lost bytes must be retransmitted as part of this segment.
            self._segment_unsent += self._pending_lost
            self._pending_lost = 0.0
        if self._pending_delivered > 0:
            self._segment_remaining -= self._pending_delivered
            self._pending_delivered = 0.0
        # One-byte tolerance: the fluid model's partial chunks leave float
        # residue that would otherwise keep the segment "open" forever.
        if self._segment_remaining <= 1.0:
            self._downloading = False
            self._buffer_seconds += SEGMENT_DURATION
            self.segments_downloaded += 1

    # ------------------------------------------------------------------ #
    # Adaptation
    # ------------------------------------------------------------------ #
    def _start_segment(self) -> None:
        self._adapt_quality()
        bitrate = self.config.ladder_mbps[self._quality_index]
        segment_bytes = mbps_to_bytes_per_sec(bitrate) * SEGMENT_DURATION
        self._segment_remaining = segment_bytes
        self._segment_unsent = segment_bytes
        self._downloading = True
        self.quality_history.append(self._quality_index)
        # Settle any deliveries/losses reported during the hand-over gap.
        self._settle()

    def _adapt_quality(self) -> None:
        if self._buffer_seconds >= UPSWITCH_BUFFER:
            self._quality_index = min(self._quality_index + 1,
                                      len(self.config.ladder_mbps) - 1)
        elif self._buffer_seconds <= DOWNSWITCH_BUFFER:
            self._quality_index = max(self._quality_index - 1, 0)


def video_4k() -> DashVideoSource:
    """A 4K DASH client (network-limited on a 48 Mbit/s link: elastic)."""
    return DashVideoSource(VideoConfig(ladder_mbps=LADDER_4K_MBPS))


def video_1080p() -> DashVideoSource:
    """A 1080p DASH client (application-limited: inelastic)."""
    return DashVideoSource(VideoConfig(ladder_mbps=LADDER_1080P_MBPS))
