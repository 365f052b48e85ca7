"""Figures 4 and 5: how cross traffic reacts to the sender's pulses.

A Nimbus flow pulses at ``fp`` while sharing the link with either a
long-running Cubic flow (elastic) or a constant-rate stream (inelastic).
Fig. 4 shows the time-domain picture: the elastic flow's rate is inversely
correlated with the pulses (after one RTT), while the inelastic flow is
unaffected.  Fig. 5 shows the frequency-domain picture: only the elastic
cross traffic produces a pronounced FFT peak at ``fp``.
"""

from __future__ import annotations

import numpy as np

from ..analysis.metrics import summarize_flow
from ..cc import Cubic, NullCC
from ..core.elasticity import FFT_DURATION, Spectrum
from ..simulator import Flow, mbps_to_bytes_per_sec
from ..simulator.endpoint import control_period
from ..traffic import PoissonSource
from .common import (MAIN_FLOW, ExperimentResult, add_main_flow, make_network,
                     run_cases)


def run_case(cross_kind: str, link_mbps: float = 96.0, prop_rtt: float = 0.05,
             buffer_ms: float = 100.0, duration: float = 30.0,
             pulse_frequency: float = 5.0, dt: float = 0.002,
             seed: int = 0) -> dict:
    """Nimbus pulsing against a Cubic flow ("elastic") or a Poisson stream."""
    network = make_network(link_mbps, buffer_ms=buffer_ms, dt=dt, seed=seed)
    mu = mbps_to_bytes_per_sec(link_mbps)
    main = add_main_flow(network, "nimbus", link_mbps, prop_rtt=prop_rtt,
                         pulse_frequency=pulse_frequency)
    if cross_kind == "elastic":
        network.add_flow(Flow(cc=Cubic(), prop_rtt=prop_rtt, name="cross"))
    else:
        network.add_flow(Flow(cc=NullCC(), prop_rtt=prop_rtt,
                              source=PoissonSource(0.5 * mu, seed=seed + 1),
                              name="cross"))
    network.run(duration)

    nimbus = main.cc
    # z is sampled once per control tick, on the simulator's tick grid: the
    # FFT frequency axis needs that realised spacing, not the nominal 10 ms.
    sample_interval = control_period(dt)
    z = nimbus.estimator.z_series()
    s = nimbus.estimator.s_series()
    times = nimbus.estimator.times()
    window = int(round(FFT_DURATION / sample_interval))
    spectrum = Spectrum(z[-window:], sample_interval)

    # Time-domain correlation between the pulses in S and the response in z,
    # evaluated at a one-RTT lag (the elastic response arrives an RTT later).
    lag = max(1, int(round(prop_rtt / sample_interval)))
    n = min(len(s), len(z))
    s_trim, z_trim = np.asarray(s[:n]), np.asarray(z[:n])
    if n > lag + 10:
        s_lead = s_trim[:-lag] - s_trim[:-lag].mean()
        z_lag = z_trim[lag:] - z_trim[lag:].mean()
        denom = np.sqrt((s_lead ** 2).sum() * (z_lag ** 2).sum())
        lagged_corr = float((s_lead * z_lag).sum() / denom) if denom > 0 else 0.0
    else:
        lagged_corr = 0.0

    scheme = f"nimbus-vs-{cross_kind}"
    summary = summarize_flow(network.recorder, MAIN_FLOW, scheme=scheme,
                             start=duration / 3)
    return {"scheme": scheme, "summary": summary, "extra": {}, "data": {
        "times": times,
        "z_mbps": np.asarray(z) * 8 / 1e6,
        "s_mbps": np.asarray(s) * 8 / 1e6,
        "fft_freqs": spectrum.freqs,
        "fft_mags_mbps": spectrum.mags * 8 / 1e6,
        "eta": spectrum.eta(pulse_frequency),
        "peak_at_fp": spectrum.at(pulse_frequency) * 8 / 1e6,
        "peak_neighbourhood": spectrum.peak_between(
            pulse_frequency * 1.2, pulse_frequency * 2.0) * 8 / 1e6,
        "lagged_correlation": lagged_corr,
    }}


def run(**params) -> ExperimentResult:
    """Run the elastic and inelastic variants and return both datasets."""
    result = ExperimentResult(name="fig04_fig05_pulse_response")
    kinds = ("elastic", "inelastic")
    payloads = run_cases(
        run_case, [dict(cross_kind=kind) for kind in kinds], result, **params)
    result.data = {kind: payload["data"]
                   for kind, payload in zip(kinds, payloads)}
    return result
