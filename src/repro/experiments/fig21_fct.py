"""Figure 21 (Appendix B): flow-completion times of the cross traffic.

The WAN workload runs against a bulk flow using each scheme; the p95 FCT of
the cross flows, binned by flow size and normalised by the Nimbus value,
shows that Nimbus is gentler on cross traffic than BBR at every size and
than Cubic for short flows, while Vegas (which cedes all bandwidth) gives
the best cross-flow FCTs at the cost of its own throughput.
"""

from __future__ import annotations

from typing import Iterable

from ..analysis.fct import fct_by_size, normalized_p95
from .common import ExperimentResult, SchemeResult, run_cases
from .fig09_wan import run_case


def run(schemes: Iterable[str] = ("nimbus", "cubic", "vegas"),
        **params) -> ExperimentResult:
    """Collect per-scheme cross-flow FCT distributions and normalise by Nimbus."""
    schemes = list(schemes)
    if "nimbus" not in schemes:
        schemes = ["nimbus"] + schemes
    result = ExperimentResult(name="fig21_fct")
    fcts = {}
    for payload in run_cases(
            run_case, [dict(scheme=scheme) for scheme in schemes], **params):
        scheme, records = payload["scheme"], payload["data"]["fct_records"]
        fcts[scheme] = fct_by_size(records)
        result.schemes[scheme] = SchemeResult(
            scheme, payload["summary"],
            dict(completed_cross_flows=len(records)))
    result.data = {
        "fct_by_size": fcts,
        "normalized_p95": normalized_p95(fcts, baseline_scheme="nimbus"),
    }
    return result
