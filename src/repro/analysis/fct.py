"""Flow-completion-time analysis for cross traffic (Appendix B, Fig. 21).

The paper bins cross flows by size (15 KB, 150 KB, 1.5 MB, 15 MB, 150 MB)
and reports the 95th-percentile completion time per bin, normalised by the
value measured when the competing bulk flow runs Nimbus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Sequence

import numpy as np

from .metrics import percentile

#: The paper's flow-size bin edges (upper bound of each bin, in bytes).
DEFAULT_SIZE_BINS = (15e3, 150e3, 1.5e6, 15e6, 150e6)


class FctRecord(NamedTuple):
    """One completed cross flow as experiment payloads carry it.

    The four values of a :class:`repro.traffic.wan.CrossFlowRecord` that
    outlive the run — plain data, so a cached payload embeds no ``Flow``.
    """

    size_bytes: float
    elastic: bool
    start_time: float
    fct: float


@dataclass
class FctBin:
    """FCT statistics for one flow-size bin."""

    upper_bytes: float
    count: int
    mean_fct: float
    median_fct: float
    p95_fct: float


def bin_label(upper_bytes: float) -> str:
    """Human-readable label for a size bin (e.g. '15KB', '1.5MB')."""
    if upper_bytes >= 1e6:
        value = upper_bytes / 1e6
        unit = "MB"
    else:
        value = upper_bytes / 1e3
        unit = "KB"
    if value == int(value):
        return f"{int(value)}{unit}"
    return f"{value:g}{unit}"


def fct_by_size(records: Iterable, size_bins: Sequence[float] = DEFAULT_SIZE_BINS
                ) -> Dict[str, FctBin]:
    """Group completed cross-flow records by size and summarise FCTs.

    ``records`` are :class:`FctRecord` rows or live
    :class:`repro.traffic.wan.CrossFlowRecord` objects (anything with
    ``size_bytes`` and ``fct`` attributes); records without an FCT
    (unfinished flows) are ignored.
    """
    buckets: Dict[float, List[float]] = {b: [] for b in size_bins}
    for record in records:
        fct = record.fct
        if fct is None:
            continue
        for upper in size_bins:
            if record.size_bytes <= upper:
                buckets[upper].append(fct)
                break
        else:
            buckets[size_bins[-1]].append(fct)

    out: Dict[str, FctBin] = {}
    for upper in size_bins:
        fcts = buckets[upper]
        arr = np.asarray(fcts, dtype=float)
        out[bin_label(upper)] = FctBin(
            upper_bytes=upper,
            count=len(fcts),
            mean_fct=float(arr.mean()) if arr.size else 0.0,
            median_fct=float(np.median(arr)) if arr.size else 0.0,
            p95_fct=percentile(fcts, 95.0),
        )
    return out


def normalized_p95(fcts: Dict[str, Dict[str, FctBin]],
                   baseline_scheme: str) -> Dict[str, Dict[str, float]]:
    """Normalise each scheme's p95 FCT by a baseline scheme, per size bin.

    ``fcts`` maps scheme name -> (bin label -> FctBin); the result maps
    scheme name -> (bin label -> p95 ratio), as in Fig. 21 where the
    baseline is Nimbus.
    """
    if baseline_scheme not in fcts:
        raise KeyError(f"baseline scheme {baseline_scheme!r} not present")
    baseline = fcts[baseline_scheme]
    out: Dict[str, Dict[str, float]] = {}
    for scheme, bins in fcts.items():
        out[scheme] = {}
        for label, stats in bins.items():
            base = baseline.get(label)
            if base is None or base.p95_fct <= 0:
                out[scheme][label] = 0.0
            else:
                out[scheme][label] = stats.p95_fct / base.p95_fct
    return out
