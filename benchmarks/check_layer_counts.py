"""Gate on the per-layer numbers that repeat exactly, not on wall time.

One ``benchmarks/e2e/worker.py --mode traced --seed 1`` pass per workload
yields counters that are a pure function of the code: every per-layer
metric ``BENCHMARK.json`` gives the unit ``count`` plus the simulated
``sim.*`` statistics (``runtime.cache.bytes_written`` is left out: it
holds the checkout path's length).  This script compares them, value for
value, with the committed ``benchmarks/layer_counts.json``::

    python benchmarks/check_layer_counts.py            # exit 1 on any difference
    python benchmarks/check_layer_counts.py --record   # rewrite the file

Re-record only in a PR that means to change what the simulator or the
runtime *does* (fewer events, another detector), and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
COUNTS = HERE / "layer_counts.json"
SEED = 1


def _contract() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def exact_metrics() -> list:
    """Names of the per-layer metrics that repeat exactly."""
    return sorted(m["name"] for m in _contract()["per_layer"]
                  if (m["unit"] == "count" or m["name"].startswith("sim."))
                  and m["name"] != "runtime.cache.bytes_written")


def measure() -> dict:
    """{workload: {metric: value}} from one traced pass per workload."""
    names = exact_metrics()
    counts = {}
    for workload in (w["name"] for w in _contract()["workloads"]):
        with tempfile.TemporaryDirectory() as work:
            done = subprocess.run(
                [sys.executable, str(HERE / "e2e" / "worker.py"),
                 "--workload", workload, "--seed", str(SEED),
                 "--mode", "traced", "--work", work],
                check=True, capture_output=True, text=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if result["failures"]:
            raise SystemExit(f"{workload}: {result['failures'][0]}")
        counts[workload] = {name: result["layers"][name] for name in names}
    return counts


def differences(counts: dict, committed: dict) -> list:
    """One line per (workload, metric) whose two values are not equal."""
    lines = []
    for workload in sorted(set(counts) | set(committed)):
        now, was = counts.get(workload, {}), committed.get(workload, {})
        lines += [f"{workload}: {name} = {now.get(name)!r}, "
                  f"committed {was.get(name)!r}"
                  for name in sorted(set(now) | set(was))
                  if now.get(name) != was.get(name)]
    return lines


def main(argv: list) -> int:
    counts = measure()
    if "--record" in argv:
        COUNTS.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
        return 0
    lines = differences(counts, json.loads(COUNTS.read_text()))
    print("\n".join(lines) or
          f"layer counts match {COUNTS.name} on {len(counts)} workloads")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
