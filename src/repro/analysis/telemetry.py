"""Loaders and summaries for the simulator's telemetry files.

Two JSONL artefacts come out of an instrumented run: an *event trace*
(``--trace`` / ``REPRO_TRACE``, schema in
:mod:`repro.simulator.telemetry`) and *runtime metrics* (``--metrics``,
schema in :mod:`repro.runtime.metrics`).  This module turns either file
into validated records and small summary tables, and doubles as the CI
validator::

    python -m repro.analysis.telemetry validate --kind trace trace.jsonl
    python -m repro.analysis.telemetry validate --kind metrics metrics.jsonl
    python -m repro.analysis.telemetry summary --kind trace trace.jsonl

``validate`` exits non-zero on the first malformed line, naming the line
number and the schema violation.  ``validate --require EVENT`` (trace
files; repeatable) additionally fails unless at least one record of each
required kind is present — how CI asserts a reroute trace really
contains a ``route_change``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..runtime.metrics import tally, validate_metrics_record
from ..simulator.telemetry import LINK_KINDS, validate_trace_record


def _iter_jsonl(path: str) -> Iterator[Tuple[int, dict]]:
    """Yield ``(line number, parsed object)`` for every non-blank line."""
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{number}: not valid JSON ({error})") from None
            yield number, record


def _load(path: str, validate: Callable[[dict], None]) -> List[dict]:
    records = []
    for number, record in _iter_jsonl(path):
        try:
            validate(record)
        except ValueError as error:
            raise ValueError(f"{path}:{number}: {error}") from None
        records.append(record)
    return records


def load_trace(path: str) -> List[dict]:
    """Read and schema-validate an event-trace JSONL file."""
    return _load(path, validate_trace_record)


def load_metrics(path: str) -> List[dict]:
    """Read and schema-validate a runtime-metrics JSONL file."""
    return _load(path, validate_metrics_record)


def trace_summary(records: Iterable[dict]) -> Dict[str, dict]:
    """Event counts overall, per flow, per link, and per fluid class.

    Returns a dict with three counters — ``events`` (by event kind),
    ``flows`` (events per flow label — fault events carry none and are
    counted only under ``events``/``links``), and ``links`` (link-located
    events per link name) — plus ``fluid``: the *latest*
    ``fluid_sample`` snapshot per aggregate class, keyed by
    ``"link/class"`` and carrying the cumulative offered/served/dropped
    byte counters, current backlog, send rate, and live flow estimate.
    """
    events: Counter = Counter()
    flows: Counter = Counter()
    links: Counter = Counter()
    fluid: Dict[str, dict] = {}
    for record in records:
        events[record["event"]] += 1
        if "flow" in record:
            flows[record["flow"]] += 1
        if record["event"] in LINK_KINDS:
            links[record["link"]] += 1
        if record["event"] == "fluid_sample":
            key = f"{record['link']}/{record['class']}"
            latest = fluid.get(key)
            if latest is None or record["time"] >= latest["time"]:
                fluid[key] = {
                    "time": record["time"],
                    "kind": record["kind"],
                    "offered": record["offered"],
                    "served": record["served"],
                    "dropped": record["dropped"],
                    "backlog": record["backlog"],
                    "rate": record["rate"],
                    "flows": record["flows"],
                }
    return {"events": events, "flows": flows, "links": links,
            "fluid": fluid}


def _counter_table(title: str, counter: Counter, indent: str = "  ") -> str:
    lines = [title]
    width = max((len(str(key)) for key in counter), default=0)
    for key, count in counter.most_common():
        lines.append(f"{indent}{str(key):<{width}}  {count}")
    return "\n".join(lines)


def _fluid_table(fluid: Dict[str, dict], indent: str = "  ") -> str:
    lines = ["fluid classes:"]
    width = max(len(key) for key in fluid)
    header = (f"{indent}{'link/class':<{width}}  {'kind':<9}"
              f"{'offered MB':>12}{'served MB':>12}{'dropped MB':>12}"
              f"{'rate Mbit/s':>13}{'flows':>8}")
    lines.append(header)
    for key in sorted(fluid):
        sample = fluid[key]
        lines.append(
            f"{indent}{key:<{width}}  {sample['kind']:<9}"
            f"{sample['offered'] / 1e6:>12.2f}"
            f"{sample['served'] / 1e6:>12.2f}"
            f"{sample['dropped'] / 1e6:>12.2f}"
            f"{sample['rate'] * 8.0 / 1e6:>13.2f}"
            f"{sample['flows']:>8.0f}")
    return "\n".join(lines)


def render_trace_summary(records: Iterable[dict]) -> str:
    summary = trace_summary(records)
    sections = [
        _counter_table("events:", summary["events"]),
        _counter_table("flows:", summary["flows"]),
        _counter_table("links:", summary["links"]),
    ]
    if summary["fluid"]:
        sections.append(_fluid_table(summary["fluid"]))
    return "\n".join(sections)


def render_metrics_summary(records: Iterable[dict]) -> str:
    summary = tally(records)
    lines = []
    for key, value in summary.items():
        if isinstance(value, float):
            value = f"{value:.3g}"
        lines.append(f"{key}: {value}")
    return "\n".join(lines)


_LOADERS = {"trace": load_trace, "metrics": load_metrics}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: validate or summarise a telemetry JSONL file."""
    parser = argparse.ArgumentParser(
        description="Validate or summarise simulator telemetry files.")
    parser.add_argument("command", choices=("validate", "summary"))
    parser.add_argument("--kind", choices=sorted(_LOADERS), required=True,
                        help="Which schema the file must match")
    parser.add_argument("--require", action="append", default=[],
                        metavar="EVENT",
                        help="validate only, trace files: fail unless at "
                             "least one record of this event kind is "
                             "present (repeatable)")
    parser.add_argument("path", help="JSONL file to read")
    args = parser.parse_args(argv)

    if args.require and (args.command != "validate" or args.kind != "trace"):
        parser.error("--require only applies to 'validate --kind trace'")

    try:
        records = _LOADERS[args.kind](args.path)
    except (OSError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 1
    if args.command == "validate":
        if args.require:
            present = Counter(record["event"] for record in records)
            missing = [kind for kind in args.require if not present[kind]]
            if missing:
                print(f"{args.path}: no record of required event kind(s): "
                      f"{', '.join(sorted(missing))}", file=sys.stderr)
                return 1
        print(f"{args.path}: {len(records)} valid {args.kind} record(s)")
        return 0
    if args.kind == "trace":
        print(render_trace_summary(records))
    else:
        print(render_metrics_summary(records))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    sys.exit(main())
