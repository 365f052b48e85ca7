"""Command-line runner for the experiment drivers.

Lets a user regenerate any paper artefact from the shell without writing
code::

    python -m repro.experiments.runner fig09 --duration 45
    python -m repro.experiments.runner table1
    python -m repro.experiments.runner --list

Arbitrary numeric keyword overrides can be passed as ``--set name=value``;
they are forwarded to the driver's ``run`` function, and a spec carries
only the overrides given (the tick is ``--set dt=SECONDS``; without it the
driver's own default holds).  ``--duration S`` is one such override,
``duration=S``: a driver that runs on
``phase_duration`` or ``flow_duration`` instead fails with its own
``TypeError``, as any override it does not take does.  A grid of runs is
a campaign manifest with ``[experiment.axes]``, run by ``repro-campaign
run`` (see :mod:`repro.runtime.campaign`).

Execution goes through :mod:`repro.runtime`, so repeated invocations with
identical parameters are served from the on-disk cache (see
``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE`` / ``REPRO_BENCH_WORKERS``).

Observability flags: ``--metrics PATH`` appends one JSONL record per spec
the moment it settles (cache hit/miss, wall seconds, worker pid — see
:mod:`repro.runtime.metrics`), so an interrupted batch still leaves the
records of what finished; ``--trace PATH`` streams structured engine
events to a JSONL file (see :mod:`repro.simulator.telemetry`).  Tracing
forces a cold, serial run: the spec itself skips the cache, since a hit
would simulate nothing (and emit no events); the driver's own batches
never read it (a batch opened while a spec executes is part of that
spec); and pool workers appending to one file would interleave lines.

A runner batch is a plain cached batch: a raising spec ends it with the
driver's error.  A batch that must survive failing specs — per-spec
deadlines, failure rows, exit code 3 — is a campaign: write the
grid as a manifest and run it with ``repro-campaign run`` (see
:mod:`repro.runtime.campaign`).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List

from ..runtime import BatchExecutor, ResultCache, ScenarioSpec, tally
from . import EXPERIMENT_INDEX
from .common import ExperimentResult


def _parse_overrides(pairs: List[str]) -> Dict[str, float]:
    """Parse ``--set name=value`` pairs (numbers only) into overrides."""
    overrides: Dict[str, float] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--set expects name=value, got {pair!r}")
        name, raw = pair.split("=", 1)
        if "," in raw:
            raise ValueError(
                f"--set {pair}: a list of values is a grid; write it as a "
                f"manifest's [experiment.axes] and run 'repro-campaign run'")
        try:
            overrides[name.strip()] = float(raw)
        except ValueError:
            raise ValueError(f"--set expects a numeric value, got {pair!r}")
    return overrides


def _describe(result: ExperimentResult) -> str:
    """Render an experiment result for the terminal."""
    lines = [result.table(), ""]
    for key, value in result.data.items():
        # Only print small scalar summaries; arrays stay accessible via the
        # Python API.
        if isinstance(value, (int, float, str, bool)):
            lines.append(f"{key}: {value}")
    return "\n".join(lines)


def _print_profile(records: List[dict], wall: float) -> None:
    """Render per-scenario wall times and the batch tally for --profile."""
    print("--- profile ---")
    for record in records:
        seconds = record["seconds"]
        status = "cached" if seconds is None else f"{seconds:8.2f}s"
        print(f"{record['label']:<40} {status}")
    count = tally(records)
    corrupt = (f", {count['corrupt']} corrupt cache entr"
               f"{'y' if count['corrupt'] == 1 else 'ies'} re-executed"
               if count["corrupt"] else "")
    print(f"batch: {count['specs']} spec(s) in {wall:.2f}s — "
          f"{count['hits']} cache hit(s), {count['misses']} miss(es), "
          f"{count['executed']} executed{corrupt}")


def _print_listing() -> None:
    for key in sorted(EXPERIMENT_INDEX):
        target = ScenarioSpec.make(EXPERIMENT_INDEX[key]).resolve()
        # The module describes its ``run``; any other target, itself.
        doc = (sys.modules[target.__module__] if target.__name__ == "run"
               else target).__doc__
        summary = (doc or "").strip().splitlines()
        print(f"{key:<8} {summary[0] if summary else ''}")


def main(argv: List[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        description="Regenerate a table or figure of the Nimbus paper.")
    parser.add_argument("experiment", nargs="?",
                        help="Experiment id (e.g. fig09, fig14, table1)")
    parser.add_argument("--list", action="store_true",
                        help="List available experiment ids and exit")
    parser.add_argument("--duration", type=float, default=None,
                        help="Override the experiment duration in seconds "
                             "(the same as --set duration=SECONDS)")
    parser.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="NAME=VALUE",
                        help="Numeric keyword override (repeatable)")
    parser.add_argument("--profile", action="store_true",
                        help="After the batch, print per-scenario wall time "
                             "and the batch tally (hits / misses / corrupt "
                             "entries re-executed, executed)")
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="Append one runtime-metrics JSONL record per "
                             "scenario to PATH as it settles")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="Stream every structured engine event to a "
                             "JSONL trace at PATH (forces a cold, serial "
                             "run; select kinds by grepping the file)")
    args = parser.parse_args(argv)

    if args.list or not args.experiment:
        _print_listing()
        return 0

    experiment_id = args.experiment
    fn = EXPERIMENT_INDEX.get(experiment_id)
    if fn is None:
        print(f"unknown experiment {experiment_id!r}; "
              f"try --list", file=sys.stderr)
        return 2

    try:
        overrides = _parse_overrides(args.overrides)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.duration is not None:
        overrides["duration"] = args.duration
    spec = ScenarioSpec.make(fn, label=experiment_id, **overrides)

    for label, path in (("--trace", args.trace), ("--metrics", args.metrics)):
        if path:
            # Fail before simulating, not after: both files are appended
            # to during a possibly long run.
            try:
                open(path, "a").close()
            except OSError as error:
                print(f"{label} {path}: {error}", file=sys.stderr)
                return 2

    if args.trace:
        # A warm cache would simulate nothing (no events to trace), and
        # parallel workers appending to one JSONL file would interleave
        # partial lines — so tracing runs cold and serial.
        executor = BatchExecutor(workers=1, cache=ResultCache(enabled=False),
                                 journal_path=args.metrics)
    else:
        executor = BatchExecutor(journal_path=args.metrics)
    # The engine reads REPRO_TRACE at construction time, deep inside the
    # driver, and drivers run their own nested batches — the environment
    # is the only channel that reaches all of them.  REPRO_BENCH_WORKERS=1
    # keeps pool workers from interleaving partial lines in the one JSONL
    # file.
    forced = {"REPRO_TRACE": args.trace,
              "REPRO_BENCH_WORKERS": "1"} if args.trace else {}
    saved = {key: os.environ.get(key) for key in forced}
    os.environ.update(forced)
    begin = time.perf_counter()
    try:
        (result,) = executor.run([spec])
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    wall = time.perf_counter() - begin
    print(_describe(result))
    if args.profile:
        _print_profile(executor.last_metrics, wall)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    sys.exit(main())
