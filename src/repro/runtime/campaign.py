"""Campaign runner: execute a manifest as one cached, journalled batch.

``repro-campaign`` promotes the batch runtime from "run one figure's
batch" to a manifest-driven campaign service::

    repro-campaign run    benchmarks/campaigns/smoke.toml --out runs/smoke
    repro-campaign status benchmarks/campaigns/smoke.toml --out runs/smoke
    repro-campaign diff   runs/smoke/summary.json runs/other/summary.json

``run`` expands the manifest (see :mod:`repro.runtime.manifest`) and
hands every cell to the hardened executor as a single batch — per-spec
crash isolation, structured failures, one campaign-level journal — so no
worker ever idles at a batch boundary.  The journal, ``<out>/journal.jsonl``,
is the executor's metrics-record stream: one record per cell, appended and
flushed as the cell settles, never truncated.  Each cell's row reaches
``<out>/results.jsonl`` (rewritten by every run) as soon as it and every
cell before it in manifest order have settled (the file is always a
cell-order prefix of the finished one), and ``<out>/summary.json`` is
written at the end.  Each cell gets one execution per run.  Because
results are memoised per spec hash × driver-module digest and failures are
never cached, re-running a campaign — after an edit, a failure or an
interruption alike — re-executes exactly the cells whose code or
parameters changed and the cells that failed or never settled; everything
else resolves as cache hits.

``status`` reads the campaign journal without executing anything.
``diff`` compares two summaries cell by cell (outcome changes, accuracy
deltas, cache behaviour) and exits non-zero when a previously-ok cell
regressed.

Exit codes: 0 success, 2 usage/manifest error (as the experiment runner),
3 campaign completed but some cells failed.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from .cache import ResultCache
from .executor import BatchExecutor, SpecFailure
from .journal import BatchJournal
from .manifest import CampaignCell, CampaignManifest, ManifestError
from .metrics import tally

#: Version tag stamped into result lines and summaries.
CAMPAIGN_SCHEMA_VERSION = 1


def _payload_scalars(summary: Any, extra: Dict[str, Any]) -> Dict[str, Any]:
    """One payload's scalars: its ``summary``'s fields and the scalar
    entries of its ``extra``, one nested level dotted (``queue.mean``)."""
    flat: Dict[str, Any] = {}
    fields = vars(summary) if summary is not None else {}
    for key, value in {**fields, **extra}.items():
        leaves = ({f"{key}.{sub}": leaf for sub, leaf in value.items()}
                  if isinstance(value, dict) else {key: value})
        flat.update({name: leaf for name, leaf in leaves.items()
                     if isinstance(leaf, (int, float, str, bool))})
    return flat


def _scalars_of(result: Any) -> Dict[str, Any]:
    """Scalar summary of one cell's result for the JSONL stream.

    The one shape read is the drivers' payload, ``{"scheme", "summary",
    "extra", "data"}`` (a dict without those keys reads as a bare
    ``extra``).  An ``ExperimentResult`` is the top-level scalars of its
    ``data``, then its schemes' payloads keyed by label: ``{field: {label:
    value}}``.  Anything else a ``module:fn`` driver returns has no scalars.
    Duck-typed on purpose: the runtime layer must not import the driver
    layer.
    """
    if isinstance(result, SpecFailure):
        return {"error": result.summary}
    if isinstance(result, dict):
        return _payload_scalars(result.get("summary"),
                                result.get("extra", result))
    by_field: Dict[str, Dict[str, Any]] = {}
    for label, scheme in getattr(result, "schemes", {}).items():
        for key, value in _payload_scalars(scheme.summary,
                                           scheme.extra).items():
            by_field.setdefault(key, {})[label] = value
    return {**{key: value
               for key, value in getattr(result, "data", {}).items()
               if isinstance(value, (int, float, str, bool))}, **by_field}


def _accuracy_of(scalars: Dict[str, Any]) -> Optional[float]:
    """A row's accuracy: its scalars' ``mode_accuracy`` (a front-end's row:
    the mean over its schemes)."""
    value = scalars.get("mode_accuracy")
    values = [v for v in (value.values() if isinstance(value, dict)
                          else [value]) if isinstance(v, (int, float))]
    return float(sum(values) / len(values)) if values else None


class CampaignRunner:
    """Executes one manifest's cells with caching, journalling, streaming.

    Args:
        manifest: Parsed campaign manifest.
        out_dir: Output directory; defaults to ``campaign-runs/<name>``.
            Holds ``results.jsonl``, ``summary.json``, ``journal.jsonl``.
        workers: Executor worker count (``None`` reads the environment).
        cache: Result cache override (tests inject toy-package graphs).
        timeout: Per-cell wall-clock deadline in seconds.
        resolver: Bare-driver-name resolver override (tests).
    """

    def __init__(self, manifest: CampaignManifest,
                 out_dir: Union[str, Path, None] = None,
                 workers: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 timeout: Optional[float] = None,
                 resolver: Optional[Callable[[str], str]] = None) -> None:
        self.manifest = manifest
        self.out_dir = Path(out_dir) if out_dir is not None \
            else Path("campaign-runs") / manifest.name
        self.workers = workers
        self.cache = cache
        self.timeout = timeout
        self.cells: List[CampaignCell] = manifest.expand(resolver)

    @property
    def results_path(self) -> Path:
        return self.out_dir / "results.jsonl"

    @property
    def summary_path(self) -> Path:
        return self.out_dir / "summary.json"

    @property
    def journal_path(self) -> Path:
        return self.out_dir / "journal.jsonl"

    # ------------------------------------------------------------------ #
    def run(self, echo: Optional[Callable[[str], None]] = None) -> dict:
        """Execute the campaign; returns (and writes) the summary dict."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        begin = time.perf_counter()
        #: Settled rows not yet written: cells settle in any order, the
        #: file takes them in manifest order.
        rows: Dict[int, dict] = {}
        cell_rows: Dict[str, dict] = {}

        def on_settle(index: int, result: Any, record: dict) -> None:
            rows[index] = {
                "schema_version": CAMPAIGN_SCHEMA_VERSION,
                "campaign": self.manifest.name,
                "cell": self.cells[index].cell_id,
                "experiment": self.cells[index].experiment,
                **{key: record[key] for key in (
                    "spec_hash", "fn", "cache", "outcome", "attempts",
                    "seconds", "worker_pid")},
                "scalars": _scalars_of(result),
            }
            rows[index]["accuracy"] = _accuracy_of(rows[index]["scalars"])
            # Cell ids are unique, so len(cell_rows) is the next cell due.
            while len(cell_rows) in rows:
                row = rows.pop(len(cell_rows))
                stream.write(json.dumps(row, separators=(",", ":"),
                                        sort_keys=True) + "\n")
                stream.flush()
                cell_rows[row["cell"]] = {
                    key: row[key] for key in (
                        "experiment", "spec_hash", "cache", "outcome",
                        "attempts", "seconds", "accuracy")}
                if echo is not None:
                    seconds = row["seconds"]
                    timing = "cached" if seconds is None \
                        else f"{seconds:6.2f}s"
                    echo(f"{row['cell']:<44} {row['cache']:>7} "
                         f"{row['outcome']:<7} {timing}")

        executor = BatchExecutor(
            workers=self.workers, cache=self.cache, timeout=self.timeout,
            on_error="record", journal_path=self.journal_path,
            on_settle=on_settle)
        with open(self.results_path, "w", encoding="utf-8") as stream:
            executor.run([cell.spec for cell in self.cells])
        summary = self._build_summary(cell_rows, tally(executor.last_metrics),
                                      wall=time.perf_counter() - begin)
        self._write_summary(summary)
        return summary

    def _build_summary(self, cell_rows: Dict[str, dict], count: dict,
                       wall: float) -> dict:
        totals = {
            "cells": count["specs"],
            "ok": count["specs"] - count["failures"],
            "failed": count["failures"],
            "hits": count["hits"],
            "misses": count["misses"],
            "corrupt": count["corrupt"],
            "sim_seconds": count["total_seconds"],
            "wall_seconds": wall,
        }
        return {
            "schema_version": CAMPAIGN_SCHEMA_VERSION,
            "campaign": self.manifest.name,
            "manifest": str(self.manifest.path) if self.manifest.path
            else None,
            "manifest_digest": self.manifest.digest,
            "cells": cell_rows,
            "totals": totals,
        }

    def _write_summary(self, summary: dict) -> None:
        tmp = self.summary_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
        os.replace(tmp, self.summary_path)

    # ------------------------------------------------------------------ #
    def status(self) -> dict:
        """Campaign progress from the journal, without executing anything."""
        journal = BatchJournal(self.journal_path)
        cells = {cell.cell_id: journal.outcome_of(cell.spec.spec_hash())
                 or "pending" for cell in self.cells}
        counts: Dict[str, int] = {}
        for outcome in cells.values():
            counts[outcome] = counts.get(outcome, 0) + 1
        return {"campaign": self.manifest.name, "cells": cells,
                "counts": counts,
                "journal": str(self.journal_path)
                if self.journal_path.exists() else None}


# ---------------------------------------------------------------------- #
# Summary diffing
# ---------------------------------------------------------------------- #
def diff_summaries(old: dict, new: dict) -> dict:
    """Cell-by-cell comparison of two campaign summaries.

    Returns added/removed cell ids, outcome changes, accuracy deltas
    beyond ``1e-9``, and the list of *regressed* cells
    (previously ``ok``, now not) that drives the CLI exit code.
    """
    old_cells = old.get("cells", {})
    new_cells = new.get("cells", {})
    added = sorted(set(new_cells) - set(old_cells))
    removed = sorted(set(old_cells) - set(new_cells))
    outcome_changes = {}
    accuracy_deltas = {}
    regressed = []
    for cell in sorted(set(old_cells) & set(new_cells)):
        before, after = old_cells[cell], new_cells[cell]
        if before["outcome"] != after["outcome"]:
            outcome_changes[cell] = (before["outcome"], after["outcome"])
            if before["outcome"] == "ok" and after["outcome"] != "ok":
                regressed.append(cell)
        acc_before, acc_after = before.get("accuracy"), after.get("accuracy")
        if isinstance(acc_before, (int, float)) \
                and isinstance(acc_after, (int, float)) \
                and abs(acc_after - acc_before) > 1e-9:
            accuracy_deltas[cell] = (acc_before, acc_after)
    return {
        "added": added,
        "removed": removed,
        "outcome_changes": outcome_changes,
        "accuracy_deltas": accuracy_deltas,
        "regressed": regressed,
        "wall_seconds": (old.get("totals", {}).get("wall_seconds"),
                         new.get("totals", {}).get("wall_seconds")),
    }


def render_diff(diff: dict) -> str:
    lines = []
    for key in ("added", "removed"):
        for cell in diff[key]:
            lines.append(f"{key}: {cell}")
    for cell, (before, after) in sorted(diff["outcome_changes"].items()):
        lines.append(f"outcome: {cell}: {before} -> {after}")
    for cell, (before, after) in sorted(diff["accuracy_deltas"].items()):
        lines.append(f"accuracy: {cell}: {before:.4f} -> {after:.4f} "
                     f"({after - before:+.4f})")
    if not lines:
        lines.append("no cell-level differences")
    if diff["regressed"]:
        lines.append(f"{len(diff['regressed'])} cell(s) regressed from ok")
    return "\n".join(lines)


def _render_totals(summary: dict) -> str:
    totals = summary["totals"]
    corrupt = f", {totals['corrupt']} corrupt" if totals["corrupt"] else ""
    return (f"campaign {summary['campaign']}: {totals['cells']} cell(s) — "
            f"{totals['ok']} ok, {totals['failed']} failed, "
            f"{totals['hits']} cache hit(s), {totals['misses']} "
            f"miss(es){corrupt}, {totals['sim_seconds']:.2f}s simulated "
            f"in {totals['wall_seconds']:.2f}s")


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
def main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro-campaign`` entry point; returns a process exit code."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Run, inspect, and compare scenario campaigns.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("run", "Execute a campaign manifest (a re-run "
                              "re-attempts only failed/pending cells)"),
                      ("status", "Per-cell progress from the journal"),
                      ("dry-run", "List the expanded cells and exit")):
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("manifest", help="Path to a .toml manifest")
        if name == "dry-run":
            continue
        cmd.add_argument("--out", metavar="DIR", default=None,
                         help="Output directory (default: "
                              "campaign-runs/<campaign name>)")
        if name == "run":
            cmd.add_argument("--workers", type=int, default=None,
                             help="Executor worker count (default: "
                                  "REPRO_BENCH_WORKERS / cpu count)")
            cmd.add_argument("--timeout", type=float, default=None,
                             metavar="SECONDS",
                             help="Per-cell wall-clock deadline")
    diff_cmd = sub.add_parser(
        "diff", help="Compare two campaign summary.json files")
    diff_cmd.add_argument("old")
    diff_cmd.add_argument("new")
    args = parser.parse_args(argv)

    if args.command == "diff":
        try:
            old = json.loads(Path(args.old).read_text(encoding="utf-8"))
            new = json.loads(Path(args.new).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            print(f"cannot load summary: {error}", file=sys.stderr)
            return 2
        diff = diff_summaries(old, new)
        print(render_diff(diff))
        return 1 if diff["regressed"] else 0

    try:
        manifest = CampaignManifest.load(args.manifest)
        runner = CampaignRunner(
            manifest,
            out_dir=getattr(args, "out", None),
            workers=getattr(args, "workers", None),
            timeout=getattr(args, "timeout", None))
    except ManifestError as error:
        print(str(error), file=sys.stderr)
        return 2

    if args.command == "dry-run":
        for cell in runner.cells:
            print(f"{cell.cell_id:<44} {cell.spec.fn}")
        print(f"{len(runner.cells)} cell(s)")
        return 0
    if args.command == "status":
        status = runner.status()
        for cell_id, outcome in status["cells"].items():
            print(f"{cell_id:<44} {outcome}")
        counts = ", ".join(f"{n} {outcome}" for outcome, n
                           in sorted(status["counts"].items()))
        print(f"campaign {status['campaign']}: {counts}")
        return 0

    summary = runner.run(echo=print)
    print(_render_totals(summary))
    print(f"summary: {runner.summary_path}")
    if summary["totals"]["failed"]:
        print(f"{summary['totals']['failed']} cell(s) failed; 'repro-campaign "
              f"run' again re-attempts only them", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    sys.exit(main())
