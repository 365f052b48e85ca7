"""End-to-end + per-layer benchmark of the Nimbus reproduction.

One command runs five named workloads through the real user path
(``ScenarioSpec`` -> ``BatchExecutor`` / ``CampaignRunner`` ->
``ResultCache``), prints every metric by name with its unit and checks
the outputs::

    python3 benchmarks/e2e/bench.py [--seed S] [--repeats N] [--out FILE]
    python3 benchmarks/e2e/bench.py --workload W --seed S --seconds T --trace 0|1
    python3 benchmarks/e2e/bench.py compare A.jsonl B.jsonl
    python3 benchmarks/e2e/bench.py manifest          # -> BENCHMARK.json

The first form measures all workloads and traces each; the second, the
form ``BENCHMARK.json`` names, measures one and ends with one JSON object
on the last line of stdout.  Both run the same pass schedule
(:func:`measure`) and append the same records to ``--out``, so
``compare`` and the committed ``results/`` cover what the driver gates.
Load model: closed loop, one client; every pass runs in a fresh
``worker.py`` process with a fresh cache directory under
``benchmarks/e2e/.work/``.  See README.md for the metric dictionary and
how to read a traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)

from spans import PER_LAYER  # noqa: E402
from workloads import BY_NAME, WORKLOADS  # noqa: E402

_ROOT = os.path.dirname(os.path.dirname(_HERE))
_WORK = os.path.join(_HERE, ".work")

#: How long one run measures unless ``--seconds`` says otherwise;
#: ``BENCHMARK.json`` carries it.
RUN_SECONDS = 25
#: Fewest warm launches per workload in a run.
WARM_LAUNCHES = 7
#: A pass takes 2-5 s; a worker still running after this long is hung.
_WORKER_TIMEOUT_S = 120

#: End-to-end metrics: name -> (unit, better, bound, how passes combine).
#: Host noise here is one-sided contention, so times take the minimum over
#: passes; set-up is paid once per launch and takes the median, as does
#: memory.  The time bounds are the widest the contract allows: ten runs
#: spread by up to 19 % of their median on this host and no run that fits
#: the contract's time cap narrows it; memory spreads by at most 2 %
#: (README.md, "Committed results").
END_TO_END: Dict[str, Tuple[str, str, float, Callable]] = {
    "setup_s": ("s", "lower", 0.25, statistics.median),
    "cold_wall_s": ("s", "lower", 0.25, min),
    "cold_cpu_s": ("s", "lower", 0.25, min),
    "warm_wall_s": ("s", "lower", 0.25, min),
    "peak_rss_mb": ("MB", "lower", 0.10, statistics.median),
}
#: Reported in every record and by ``compare``; the contract's last line
#: carries it as ``attempted``/``failed`` because a metric there may never
#: read 0.
FAILED_SHARE = ("failed_share", "ratio", "lower", 0.0)

Launch = Callable[..., Tuple[dict, float]]


class WorkerCrashed(RuntimeError):
    """A worker process ended without reporting a pass."""


def launch_worker(workload: str, seed: int, mode: str, work_dir: str,
                  scale: float = 1.0, spans_out: Optional[str] = None,
                  cpu: Optional[int] = None) -> Tuple[dict, float]:
    """Run one pass in a fresh process: (its report, spawn-to-exit wall)."""
    command = [sys.executable, os.path.join(_HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed), "--mode", mode,
               "--work", work_dir, "--scale", repr(scale)]
    if cpu is not None:
        command += ["--cpu", str(cpu)]
    if spans_out:
        command += ["--spans-out", spans_out]
    begin = time.perf_counter()
    # Its own session, so that a hung worker dies with the cells it forked.
    with subprocess.Popen(command, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as process:
        try:
            stdout, stderr = process.communicate(timeout=_WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired as error:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            raise WorkerCrashed(
                f"{workload}/{mode} worker still running after "
                f"{_WORKER_TIMEOUT_S} s; killed") from error
    wall = time.perf_counter() - begin
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise WorkerCrashed(
            f"{workload}/{mode} worker exited {process.returncode}:\n"
            f"{stderr.strip()}")
    return json.loads(lines[-1]), wall


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


class Measurement:
    """The passes of one workload at one seed, and what they add up to."""

    def __init__(self, workload: str, seed: int, scale: float = 1.0,
                 launch: Launch = launch_worker,
                 work_root: Optional[str] = None) -> None:
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self._launch = launch
        self._own_work = work_root is None
        self._root = os.path.join(work_root or _WORK,
                                  f"{os.getpid()}-{workload}")
        self._dirs = 0
        self._cache_dir: Optional[str] = None   # left by the last cold pass
        self.cold: List[dict] = []
        self.warm: List[Tuple[dict, float]] = []
        self.traced: Optional[dict] = None

    def _fresh_dir(self) -> str:
        self._dirs += 1
        path = os.path.join(self._root, f"pass{self._dirs}")
        os.makedirs(path)
        return path

    def _run(self, mode: str, work_dir: str, turn: int,
             spans_out: Optional[str] = None) -> Tuple[dict, float]:
        """Launch the ``turn``-th pass of its kind.  Single-client passes
        are pinned to one CPU, successive ones of a kind to alternating
        CPUs: host slow spells can sit on one core and outlast a run, and
        this way one cannot cover every pass."""
        cpu = None
        if BY_NAME[self.workload].workers == 1:
            allowed = sorted(os.sched_getaffinity(0))
            cpu = allowed[turn % len(allowed)]
        return self._launch(self.workload, self.seed, mode, work_dir,
                            scale=self.scale, spans_out=spans_out, cpu=cpu)

    def cold_pass(self) -> None:
        """One untraced cold pass; its cache serves later warm launches."""
        if self._cache_dir is not None:
            shutil.rmtree(self._cache_dir)
        self._cache_dir = self._fresh_dir()
        self.cold.append(
            self._run("cold", self._cache_dir, len(self.cold))[0])

    def warm_launch(self) -> None:
        """Fresh process, same cache directory, same specs: all hits."""
        self.warm.append(self._run("warm", self._cache_dir, len(self.warm)))

    def traced_pass(self, spans_out: Optional[str] = None) -> None:
        work_dir = self._fresh_dir()
        self.traced = self._run("traced", work_dir, 0, spans_out)[0]
        shutil.rmtree(work_dir)

    def close(self) -> None:
        shutil.rmtree(self._root, ignore_errors=True)
        if self._own_work:
            try:
                os.rmdir(_WORK)
            except OSError:
                pass    # another run is using .work/, or it is already gone

    # ------------------------------------------------------------------ #
    def _passes(self) -> List[dict]:
        passes = self.cold + [report for report, _ in self.warm]
        return passes + ([self.traced] if self.traced else [])

    def failures(self) -> List[dict]:
        """Failed operations: worker-side checks plus digest mismatches.

        Every pass must reproduce the payload digests of the first cold
        pass — later cold passes, cache-served warm payloads and the
        traced pass alike.
        """
        failed = []
        reference = self.cold[0]["digests"]
        for index, report in enumerate(self._passes()):
            where = f"{report['mode']} pass {index + 1}"
            failed += [{**failure, "pass": where}
                       for failure in report["failures"]]
            failed += [{"op": op, "pass": where,
                        "reason": "payload digest differs from the first "
                                  "cold pass"}
                       for op, digest in report["digests"].items()
                       if reference.get(op, digest) != digest]
        return failed

    def samples(self) -> Dict[str, List[float]]:
        launches = self.cold + [report for report, _ in self.warm]
        return {
            "setup_s": [report["setup_s"] for report in launches],
            "cold_wall_s": [report["wall_s"] for report in self.cold],
            "cold_cpu_s": [report["cpu_s"] for report in self.cold],
            "warm_wall_s": [wall for _, wall in self.warm],
            "peak_rss_mb": [report["rss_mb"] for report in self.cold],
        }

    def per_layer(self) -> Dict[str, float]:
        layers = dict(self.traced["layers"])
        layers["interp.import_s"] = statistics.median(
            report["import_s"] for report, _ in self.warm)
        layers["harness.trace_overhead_ratio"] = self.traced["wall_s"] / min(
            report["wall_s"] for report in self.cold)
        return layers

    def report(self) -> dict:
        """Everything measured: the record ``--out`` appends, less its key."""
        failed = self.failures()
        attempted = sum(report["ops"] for report in self._passes())
        end_to_end = {}
        for name, values in self.samples().items():
            unit, _, _, combine = END_TO_END[name]
            q1, median, q3 = _quartiles(values)
            end_to_end[name] = {
                "value": combine(values), "unit": unit, "median": median,
                "q1": q1, "q3": q3, "n": len(values), "samples": values}
        end_to_end[FAILED_SHARE[0]] = {
            "value": len(failed) / attempted, "unit": FAILED_SHARE[1]}
        result = {"attempted": attempted, "failed": len(failed),
                  "failures": failed, "end_to_end": end_to_end}
        if self.traced is not None and "layers" in self.traced:
            layers = self.per_layer()
            result["per_layer"] = {
                name: {"value": layers[name], "unit": unit}
                for name, unit, _ in PER_LAYER}
        return result


# ---------------------------------------------------------------------- #
# Running
# ---------------------------------------------------------------------- #
def measure(names: Sequence[str], seed: int, trace: bool,
            seconds: float = RUN_SECONDS, repeats: Optional[int] = None,
            warm: int = WARM_LAUNCHES, scale: float = 1.0,
            launch: Launch = launch_worker, work_root: Optional[str] = None,
            spans_out: Optional[str] = None) -> Dict[str, dict]:
    """The pass schedule of every run: workload name -> its report.

    Rounds of one untraced cold pass and one warm launch per workload,
    round-robin across ``names`` rather than back-to-back, so that a host
    slow spell cannot cover every sample of one kind: ``repeats`` rounds,
    or as many as fit ``seconds`` per workload (at least two, so that one
    cold pass checks another's payloads).  Then warm launches up to
    ``warm`` per workload and, with ``trace``, one traced cold pass each.
    """
    measurements = [Measurement(name, seed, scale, launch, work_root)
                    for name in names]
    budget = seconds * len(measurements)
    begin = time.perf_counter()
    try:
        rounds = 0
        while True:
            for measurement in measurements:
                measurement.cold_pass()
                measurement.warm_launch()
            rounds += 1
            elapsed = time.perf_counter() - begin
            if repeats is not None:
                if rounds >= repeats:
                    break
            elif rounds >= 2 and elapsed + elapsed / rounds > budget:
                break
        for measurement in measurements:
            while len(measurement.warm) < warm:
                measurement.warm_launch()
            if trace:
                measurement.traced_pass(spans_out)
        return {m.workload: m.report() for m in measurements}
    finally:
        for measurement in measurements:
            measurement.close()


def contract_line(report: dict, trace: bool) -> str:
    """The JSON object that ends a ``--workload`` run's stdout.

    A failed traced pass has no layers to report; the line then carries
    no per-layer metrics, and ``correct`` is false.
    """
    group = report.get("per_layer", {}) if trace else report["end_to_end"]
    names = [name for name, _, _ in PER_LAYER] if trace else list(END_TO_END)
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"], "failed": report["failed"],
        "metrics": {name: {"value": group[name]["value"],
                           "unit": group[name]["unit"]}
                    for name in names if name in group}})


def _print_report(workload: str, report: dict) -> None:
    print(f"== {workload}: {report['attempted']} operations, "
          f"{report['failed']} failed")
    for failure in report["failures"]:
        print(f"   FAILED {failure['op']} ({failure['pass']}): "
              f"{failure['reason']}")
    for name, entry in report["end_to_end"].items():
        detail = ""
        if "n" in entry:
            detail = (f"  (median {entry['median']:.4f}, quartiles "
                      f"{entry['q1']:.4f}-{entry['q3']:.4f}, "
                      f"n={entry['n']})")
        print(f"   {name:<36} {entry['value']:>14.4f} {entry['unit']}{detail}")
    for name, entry in report.get("per_layer", {}).items():
        print(f"   {name:<36} {entry['value']:>14.4f} {entry['unit']}")


def _append_results(path: str, seed: int, reports: Dict[str, dict]) -> None:
    """One JSON line per workload measured; a file collects a set of runs."""
    with open(path, "a", encoding="utf-8") as handle:
        for workload, report in reports.items():
            handle.write(json.dumps({"schema": 2, "workload": workload,
                                     "seed": seed, **report},
                                    sort_keys=True) + "\n")


# ---------------------------------------------------------------------- #
# Comparing two sets of runs
# ---------------------------------------------------------------------- #
def _load_results(path: str) -> Dict[str, Dict[str, List[float]]]:
    """workload -> end-to-end metric -> its value in every run of the file."""
    runs: Dict[str, Dict[str, List[float]]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in filter(str.strip, handle):
            record = json.loads(line)
            metrics = runs.setdefault(record["workload"], {})
            for name, entry in record["end_to_end"].items():
                metrics.setdefault(name, []).append(entry["value"])
    return runs


def _run_spread(values: Sequence[float]) -> float:
    """Quartile distance of the runs as a share of their median."""
    q1, median, q3 = _quartiles(values)
    return (q3 - q1) / median if median else 0.0


def _verdict(base: Sequence[float], other: Sequence[float],
             bound: float) -> Tuple[str, float, float]:
    """(``ok`` / ``worse`` / ``unresolved``, B/A, spread) for one
    lower-is-better metric, from its value in every run of each side.

    ``worse``: the median of the runs grew by more than ``bound``.  Where
    the run-to-run spread of either side is wider than the bound, the
    medians cannot be trusted either way, and the verdict is
    ``unresolved`` unless every run of one side beats every run of the
    other.
    """
    a, b = statistics.median(base), statistics.median(other)
    ratio = b / a if a else (1.0 if not b else float("inf"))
    worse = ratio > 1.0 + bound
    spread = max(_run_spread(base), _run_spread(other))
    if spread > bound:
        low, high = (base, other) if worse else (other, base)
        if max(low) >= min(high):
            return "unresolved", ratio, spread
    return ("worse" if worse else "ok"), ratio, spread


def compare(path_a: str, path_b: str) -> int:
    """Print every (end-to-end metric, workload) pair of two result files."""
    base, other = _load_results(path_a), _load_results(path_b)
    bounds = {name: spec[2] for name, spec in END_TO_END.items()}
    bounds[FAILED_SHARE[0]] = FAILED_SHARE[3]
    units = {name: spec[0] for name, spec in END_TO_END.items()}
    units[FAILED_SHARE[0]] = FAILED_SHARE[1]
    print(f"{'workload':<16} {'metric':<12} {'A':>10} {'runs':>4} {'B':>10} "
          f"{'runs':>4} {'B/A':>7} {'spread':>7} {'bound':>6}  verdict")
    worse = 0
    for workload in sorted(set(base) & set(other)):
        for name, bound in bounds.items():
            a, b = base[workload][name], other[workload][name]
            verdict, ratio, spread = _verdict(a, b, bound)
            worse += verdict == "worse"
            print(f"{workload:<16} {name:<12} {statistics.median(a):>10.4f} "
                  f"{len(a):>4} {statistics.median(b):>10.4f} {len(b):>4} "
                  f"{ratio:>7.3f} {spread:>7.3f} {bound:>6.2f}  {verdict}  "
                  f"(base A = {statistics.median(a):.4f} {units[name]})")
    print(f"{worse} pair(s) worse")
    return 1 if worse else 0


def manifest() -> dict:
    """``BENCHMARK.json``, generated from the tables in this package."""
    return {
        "command": ["python3", "benchmarks/e2e/bench.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, (unit, better, bound, _)
                       in END_TO_END.items()],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in PER_LAYER],
    }


# ---------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None,
         launch: Launch = launch_worker) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: bench.py compare A.jsonl B.jsonl", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    if argv[:1] == ["manifest"]:
        print(json.dumps(manifest(), indent=2))
        return 0
    parser = argparse.ArgumentParser(
        description="End-to-end + per-layer benchmark (see README.md).")
    parser.add_argument("--workload", choices=sorted(BY_NAME), default=None,
                        help="measure one workload and end with one JSON "
                             "line (default: all workloads, traced)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long to measure, per workload")
    parser.add_argument("--repeats", type=int, default=None,
                        help="exactly this many cold passes per workload, "
                             "instead of as many as fit --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1 adds a traced pass; with --workload the "
                             "JSON line then holds the per-layer metrics "
                             "(default: 0 with --workload, else 1)")
    parser.add_argument("--out", default=None,
                        help="append the results to this file, one JSON "
                             "line per workload")
    parser.add_argument("--spans-out", default=None,
                        help="with --workload --trace 1: write the spans")
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.spans_out and not (args.workload and args.trace):
        parser.error("--spans-out needs --workload and --trace 1")
    if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
        print(f"no src/repro under {_ROOT}: nothing to benchmark",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(BY_NAME)
    trace = bool(args.trace) if args.trace is not None else not args.workload
    try:
        reports = measure(names, args.seed, trace, seconds=args.seconds,
                          repeats=args.repeats, launch=launch,
                          spans_out=args.spans_out)
    except WorkerCrashed as error:
        print(error, file=sys.stderr)
        return 2
    for workload, report in reports.items():
        _print_report(workload, report)
    if args.out:
        _append_results(args.out, args.seed, reports)
    if args.workload:
        print(contract_line(reports[args.workload], trace))
    return 1 if any(report["failed"] for report in reports.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
