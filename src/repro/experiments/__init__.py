"""Experiment drivers: one module per table/figure of the paper.

Each module exposes a ``run(**params)`` function returning an
:class:`~repro.experiments.common.ExperimentResult`.  Default parameters
mirror the paper's setups; benchmarks pass scaled-down durations.
"""

from .common import (
    MAIN_FLOW,
    ExperimentResult,
    SchemeResult,
    add_main_flow,
    make_network,
    make_scheme,
    queue_delay_stats,
)

#: Registry mapping paper artefact -> dotted name of its driver module.
#: Names, not modules: importing this package imports no driver; whoever
#: needs one (the runner, a spec being executed) imports it on first use.
EXPERIMENT_INDEX = {
    "fig01": "repro.experiments.fig01_motivation",
    "fig03": "repro.experiments.fig03_self_inflicted",
    "fig04": "repro.experiments.fig04_pulse_response",
    "fig05": "repro.experiments.fig05_fft",
    "fig06": "repro.experiments.fig06_elasticity_cdf",
    "fig08": "repro.experiments.fig08_time_varying",
    "fig09": "repro.experiments.fig09_wan",
    "fig09_fluid": "repro.experiments.fig09_fluid",
    "fig10": "repro.experiments.fig10_copa_drop",
    "fig11": "repro.experiments.fig11_video",
    "fig12": "repro.experiments.fig12_eta_tracking",
    "fig13": "repro.experiments.fig13_load",
    "fig14": "repro.experiments.fig14_accuracy_vs_copa",
    "fig15": "repro.experiments.fig15_rtt_sweep",
    "fig16": "repro.experiments.fig16_multiflow",
    "fig17": "repro.experiments.fig17_multiflow_cross",
    "fig18": "repro.experiments.internet_paths",
    "fig19": "repro.experiments.internet_paths",
    "fig20": "repro.experiments.internet_paths",
    "fig21": "repro.experiments.fig21_fct",
    "fig22": "repro.experiments.fig22_bbr_compete",
    "fig23": "repro.experiments.fig23_copa_cbr",
    "fig24": "repro.experiments.fig24_copa_rtt",
    "fig25": "repro.experiments.fig25_multifactor",
    "fig26": "repro.experiments.fig26_vivace_pulse",
    "appE": "repro.experiments.appE_buffer_aqm",
    "link_flap": "repro.experiments.link_flap",
    "parking_lot": "repro.experiments.parking_lot",
    "reroute": "repro.experiments.reroute",
    "selftest": "repro.experiments.selftest",
    "table1": "repro.experiments.table1_classification",
}

__all__ = [
    "EXPERIMENT_INDEX",
    "ExperimentResult",
    "MAIN_FLOW",
    "SchemeResult",
    "add_main_flow",
    "make_network",
    "make_scheme",
    "queue_delay_stats",
]
