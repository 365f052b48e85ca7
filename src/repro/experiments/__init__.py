"""Experiment drivers: one module per table/figure of the paper.

Each module exposes a ``run(axes..., **params)`` front-end returning an
:class:`~repro.experiments.common.ExperimentResult`.  Default parameters
mirror the paper's setups; benchmarks pass scaled-down durations.

Every driver follows one recipe: a module-level ``run_case(**scalars)``
builds, runs and measures one network and returns the payload — a
``{"scheme", "summary", "extra", "data"}`` dict, data only; ``run`` lists its
cases for :func:`.common.run_cases` (one cached batch) and reduces the
payloads.  ``run_case``'s signature holds every default: ``run`` names its
sweep axes, plus only a case parameter its reduction reads or defaults
differently, and passes the rest through ``**params``.  Cases echo numeric
parameters through ``float()``.
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

#: Registry mapping paper artefact -> ``"module:function"`` of its front-end.
#: Names, not objects: importing this package imports no driver; whoever
#: needs one (the runner, a spec being executed) imports it on first use.
EXPERIMENT_INDEX = {
    "fig01": "repro.experiments.fig01_motivation:run",
    "fig03": "repro.experiments.fig03_self_inflicted:run",
    "fig04": "repro.experiments.fig04_pulse_response:run",
    "fig05": "repro.experiments.fig05_fft:run",
    "fig06": "repro.experiments.fig06_elasticity_cdf:run",
    "fig08": "repro.experiments.fig08_time_varying:run",
    "fig09": "repro.experiments.fig09_wan:run",
    "fig09_fluid": "repro.experiments.fig09_fluid:run",
    "fig10": "repro.experiments.fig10_copa_drop:run",
    "fig11": "repro.experiments.fig11_video:run",
    "fig12": "repro.experiments.fig12_eta_tracking:run",
    "fig13": "repro.experiments.fig13_load:run",
    "fig14": "repro.experiments.fig14_accuracy_vs_copa:run",
    "fig15": "repro.experiments.fig15_rtt_sweep:run",
    "fig16": "repro.experiments.fig16_multiflow:run",
    "fig17": "repro.experiments.fig17_multiflow_cross:run",
    "fig18": "repro.experiments.internet_paths:run",
    "fig19": "repro.experiments.internet_paths:run",
    "fig20": "repro.experiments.internet_paths:run_appendix_a",
    "fig21": "repro.experiments.fig21_fct:run",
    "fig22": "repro.experiments.fig22_bbr_compete:run",
    "fig23": "repro.experiments.fig23_copa_cbr:run",
    "fig24": "repro.experiments.fig24_copa_rtt:run",
    "fig25": "repro.experiments.fig25_multifactor:run",
    "fig26": "repro.experiments.fig26_vivace_pulse:run",
    "appE": "repro.experiments.appE_buffer_aqm:run",
    "link_flap": "repro.experiments.link_flap:run",
    "parking_lot": "repro.experiments.parking_lot:run",
    "reroute": "repro.experiments.reroute:run",
    "selftest": "repro.experiments.selftest:run",
    "table1": "repro.experiments.table1_classification:run",
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
