"""Figure 12: the elasticity metric tracks the true elastic share over time.

A Nimbus flow runs against the WAN workload; the experiment compares the
time series of the elasticity metric (and the resulting mode decisions)
against the ground truth computed from the workload generator: the fraction
of delivered cross-traffic bytes in each window that belong to flows large
enough to be ACK-clocked.
"""

from __future__ import annotations

import numpy as np

from ..analysis.accuracy import classification_accuracy
from ..analysis.metrics import summarize_flow
from .common import MAIN_FLOW, ExperimentResult, SchemeResult, run_cases
from .fig09_wan import wan_network


def run_case(link_mbps: float = 96.0, prop_rtt: float = 0.05,
             buffer_ms: float = 100.0, load: float = 0.5,
             duration: float = 80.0, truth_window: float = 5.0,
             truth_threshold: float = 0.3, dt: float = 0.002,
             seed: int = 1) -> dict:
    """Nimbus on the WAN workload, its eta and modes scored against the
    generator's ground truth."""
    network, flow, generator = wan_network(
        "nimbus", link_mbps=link_mbps, prop_rtt=prop_rtt,
        buffer_ms=buffer_ms, load=load, dt=dt, seed=seed)
    network.run(duration)
    recorder = network.recorder
    nimbus = flow.cc

    eta_times = np.array([t for t, _ in nimbus.eta_history])
    eta_values = np.array([e for _, e in nimbus.eta_history])

    # One fraction per bin; the truth label is that series thresholded.
    times, modes = recorder.mode_series(MAIN_FLOW)
    truth_series = generator.elastic_byte_fraction(
        np.maximum(0.0, times - truth_window), times)
    truth = dict(zip(times.tolist(), truth_series >= truth_threshold))
    warmup = 10.0
    report = classification_accuracy(times, modes, warmup=warmup,
                                     elastic_truth=truth.__getitem__,
                                     settle=truth_window)
    return {
        "scheme": "nimbus",
        "summary": summarize_flow(recorder, MAIN_FLOW, scheme="nimbus",
                                  start=warmup),
        "extra": {
            "mode_accuracy": report.accuracy,
            "time_in_competitive": report.time_in_competitive,
            "truth_elastic_fraction": report.time_elastic_truth,
        },
        "data": {
            "eta_times": eta_times,
            "eta_values": eta_values,
            "mode_times": times,
            "modes": modes,
            "elastic_fraction_truth": truth_series,
        },
    }


def run(**params) -> ExperimentResult:
    """Run Nimbus on the WAN workload and score eta against ground truth."""
    result = ExperimentResult(name="fig12_eta_tracking")
    payload, = run_cases(run_case, [{}], **params)
    # The front-end keeps the key its ``extra`` and ``data`` always had.
    extra = {"accuracy" if key == "mode_accuracy" else key: value
             for key, value in payload["extra"].items()}
    result.schemes["nimbus"] = SchemeResult("nimbus", payload["summary"],
                                            extra)
    result.data = {**payload["data"], "accuracy": extra["accuracy"]}
    return result
