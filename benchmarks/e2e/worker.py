"""One pass of one workload, in a fresh process.

``bench.py`` launches this file once per pass::

    python worker.py --workload W --seed S --mode cold|warm|traced --work DIR

and reads one JSON object from the last line of stdout.  A pass is:
set-up (import ``repro``, build the inputs from the seed, create the cache
directory), the timed region (``BatchExecutor.run`` / ``CampaignRunner``
from first call to results), then the output checks.  ``cold`` and
``traced`` expect an empty cache under ``DIR`` and must be 100 % misses;
``warm`` re-runs the same specs against the cache a cold pass left in
``DIR`` and must be 100 % hits; ``traced`` is a cold pass with the span
wrappers of :mod:`spans` installed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import resource
import sys
import time
import traceback
from typing import Any, Dict, Iterator, List, Optional, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(os.path.dirname(_HERE)), "src")

#: Environment switches that would change what a pass measures.
_CLEARED = ("REPRO_NO_CACHE", "REPRO_BENCH_WORKERS", "REPRO_AUDIT",
            "REPRO_RUNTIME_WORKER")


def isolate_environment(cache_dir: str) -> None:
    """Point every cache the program opens at ``cache_dir``.

    Passing ``cache=`` to the executor is not enough: drivers' ``run()``
    open nested batches through the *default* cache, which would otherwise
    be ``~/.cache/repro-runtime`` and make a second cold pass look warm.
    """
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    for key in list(os.environ):
        if key in _CLEARED or key.startswith("REPRO_TRACE"):
            del os.environ[key]


def _digest(payload: Any) -> str:
    return hashlib.sha256(
        pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)).hexdigest()


def _scheme_views(payload: Any) -> Iterator[Tuple[Any, dict, dict]]:
    """(summary, extra, data) of every scheme result inside a payload.

    Per-case drivers return one ``{"summary", "extra", "data"}`` dict; the
    ``run()`` drivers behind campaign cells return an ``ExperimentResult``
    holding one of each per scheme.
    """
    if isinstance(payload, dict):
        if "summary" in payload:
            yield (payload["summary"], payload.get("extra") or {},
                   payload.get("data") or {})
    elif hasattr(payload, "schemes"):
        for name, scheme in payload.schemes.items():
            yield scheme.summary, scheme.extra or {}, \
                payload.data.get(name) or {}


def _conservation_error(payload: Any) -> Optional[str]:
    """First per-link byte-counter table that breaks conservation."""
    for _, _, data in _scheme_views(payload):
        for key in ("per_link", "per_hop"):
            for link, row in (data.get(key) or {}).items():
                residue = row["offered_bytes"] - (
                    row["served_bytes"] + row["dropped_bytes"]
                    + row["queued_bytes"])
                if abs(residue) > 1.0:
                    return (f"link {link!r}: offered != served + dropped + "
                            f"queued (residue {residue:.3f} bytes)")
    return None


def _sim_stats(specs: List[Any], payloads: List[Any]) -> Dict[str, float]:
    """Simulated statistics read from the payloads; they repeat exactly."""
    tput, qdelay, accuracy, cross_flows = [], [], [], 0
    for payload in payloads:
        if isinstance(payload, dict) and "correct" in payload:
            accuracy.append(float(payload["correct"]))
        for summary, extra, _ in _scheme_views(payload):
            tput.append(summary.mean_throughput_mbps)
            qdelay.append(summary.mean_delay_ms)
            if extra.get("mode_accuracy") is not None:
                accuracy.append(extra["mode_accuracy"])
            cross_flows += extra.get("cross_flows") or 0

    def mean(values: List[float], absent: float = 0.0) -> float:
        return sum(values) / len(values) if values else absent

    return {
        "sim.seconds": float(sum(spec.kwargs().get("duration", 0.0)
                                 for spec in specs)),
        "sim.main_tput_mbps": mean(tput),
        "sim.qdelay_mean_ms": mean(qdelay),
        # -1: no payload of this workload carries an accuracy.
        "sim.mode_accuracy": mean(accuracy, absent=-1.0),
        "sim.cross_flows": cross_flows,
    }


def _cpu_seconds() -> float:
    """User + system CPU of this process and the children it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _tree_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(folder, name))
               for folder, _, names in os.walk(root) for name in names)


def run_pass(workload_name: str, seed: int, mode: str, work_dir: str,
             scale: float = 1.0, spans_out: Optional[str] = None,
             entered: Optional[float] = None) -> dict:
    """Run one pass and return its measurements and check results.

    The caller has already pointed the environment at ``work_dir/cache``
    (see :func:`isolate_environment`); ``entered`` is the clock reading at
    process entry, from which ``setup_s`` is measured.
    """
    entered = time.perf_counter() if entered is None else entered
    import_begin = time.perf_counter()
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)
    import repro.experiments  # noqa: F401  (registers every driver)
    from repro.runtime import BatchExecutor, ResultCache
    from repro.runtime.campaign import CampaignRunner
    from repro.runtime.manifest import CampaignManifest
    import_s = time.perf_counter() - import_begin

    import spans
    from workloads import BY_NAME

    workload = BY_NAME[workload_name]
    inputs = workload.build(seed, scale)
    if workload.campaign:
        manifest = CampaignManifest.from_mapping(inputs)
    else:
        executor = BatchExecutor(workers=workload.workers)
    cache_dir = os.environ["REPRO_CACHE_DIR"]
    os.makedirs(cache_dir, exist_ok=True)
    recorder = spans.SpanRecorder() if mode == "traced" else None

    def timed_region() -> List[tuple]:
        """One row per spec: (label, spec, payload, cache state, failure)."""
        if not workload.campaign:
            payloads = executor.run(inputs)
            return [(spec.label, spec, payload, record["cache"], None)
                    for spec, payload, record
                    in zip(inputs, payloads, executor.last_metrics)]
        runner = CampaignRunner(manifest, workers=workload.workers,
                                out_dir=os.path.join(work_dir, f"out-{mode}"))
        cells = runner.run()["cells"]
        return [(cell.cell_id, cell.spec, None, cells[cell.cell_id]["cache"],
                 None if cells[cell.cell_id]["outcome"] == "ok"
                 else f"cell ended {cells[cell.cell_id]['outcome']}")
                for cell in runner.cells]

    setup_s = time.perf_counter() - entered
    cpu_before = _cpu_seconds()
    wall_begin = time.perf_counter()
    error = None
    try:
        if recorder is None:
            rows = timed_region()
        else:
            with spans.installed(recorder), recorder.span(*spans.ROOT):
                rows = timed_region()
    except Exception:
        error = traceback.format_exc().strip().splitlines()[-1]
    wall_s = time.perf_counter() - wall_begin
    cpu_s = _cpu_seconds() - cpu_before

    result = {
        "workload": workload_name, "seed": seed, "mode": mode,
        "setup_s": setup_s, "import_s": import_s, "wall_s": wall_s,
        "cpu_s": cpu_s, "failures": [], "digests": {},
        "rss_mb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0,
    }
    if error is not None:
        count = len(manifest.expand()) if workload.campaign else len(inputs)
        result["ops"] = count
        result["failures"] = [{"op": "batch", "reason": error}] * count
        return result

    expected = "hit" if mode == "warm" else "miss"
    cache = ResultCache()
    payloads = []
    for label, spec, payload, state, reason in rows:
        if reason is None and workload.campaign:
            # The campaign streams scalars, not payloads; the payloads a
            # user would load afterwards are the cache entries it wrote.
            payload = cache.get(spec.spec_hash(), fn=spec.fn)
        payloads.append(payload)
        if reason is None and state != expected:
            reason = f"cache state {state!r}, expected {expected!r}"
        if reason is None:
            reason = _conservation_error(payload)
        if reason is not None:
            result["failures"].append({"op": label, "reason": reason})
        else:
            result["digests"][label] = _digest(payload)
    states = [row[3] for row in rows]
    result["ops"] = len(rows)
    result["hits"] = states.count("hit")
    result["misses"] = len(states) - result["hits"]
    if recorder is not None:
        for message in recorder.violations:
            result["failures"].append({"op": "engine", "reason": message})
        layers = spans.layer_metrics(recorder, workload.workers)
        layers.update(_sim_stats([row[1] for row in rows], payloads))
        layers["runtime.cache.hits"] = result["hits"]
        layers["runtime.cache.misses"] = result["misses"]
        layers["runtime.cache.bytes_written"] = _tree_bytes(cache_dir)
        result["layers"] = layers
        if spans_out:
            recorder.write(spans_out)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    entered = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("cold", "warm", "traced"),
                        required=True)
    parser.add_argument("--work", required=True,
                        help="pass directory (holds cache/ and out-*/)")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--cpu", type=int, default=None,
                        help="pin this pass to one CPU")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    isolate_environment(os.path.join(args.work, "cache"))
    result = run_pass(args.workload, args.seed, args.mode, args.work,
                      scale=args.scale, spans_out=args.spans_out,
                      entered=entered)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
