"""Tier-1 wall-time trajectory: what the suite costs, one line per run.

    python benchmarks/tier1_trajectory.py

Runs the tier-1 command (``python -m pytest -x -q -p no:benchmark``, with
``--durations=20``) from the repository root twice on one fresh
``REPRO_CACHE_DIR``: cold, which fills the result cache, then warm, which
reads it.  If both pass, appends one JSON line to ``BENCH_tier1.json``:
``{commit, dirty, cold_s, warm_s, passed, xfailed, slowest}`` — the
counts are the cold run's, ``slowest`` its 20 slowest test phases.  There
is no gate: the file is a trajectory, not a bound.  Exit status is the
first failing run's, else 0.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_tier1.json"
COMMAND = (sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:benchmark",
           "--durations=20")

_COUNT = re.compile(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed)")
_DURATION = re.compile(r"^(\d+(?:\.\d+)?)s (setup|call|teardown)\s+(\S.*)$")


def parse_summary(output: str) -> dict:
    """``{"passed": n, "xfailed": n, ...}`` from pytest's last summary line,
    plus ``"slowest"``: the ``--durations`` table as ``{s, when, test}``."""
    lines = output.strip().splitlines()
    summary = lines[-1] if lines else ""
    result = {kind: int(count) for count, kind in _COUNT.findall(summary)}
    result["slowest"] = [
        {"s": float(match[1]), "when": match[2], "test": match[3]}
        for match in map(_DURATION.match, lines) if match]
    return result


def _git(*args: str) -> str:
    return subprocess.run(("git", *args), cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def main() -> int:
    wall, outputs = {}, {}
    with tempfile.TemporaryDirectory(prefix="tier1-cache-") as cache:
        env = dict(os.environ, REPRO_CACHE_DIR=cache,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(ROOT / "src"),
                                     os.environ.get("PYTHONPATH")])))
        for run in ("cold", "warm"):
            start = time.perf_counter()
            done = subprocess.run(COMMAND, cwd=ROOT, env=env,
                                  capture_output=True, text=True)
            wall[run] = round(time.perf_counter() - start, 1)
            outputs[run] = done.stdout
            print(f"{run}: {wall[run]} s, exit {done.returncode}", flush=True)
            if done.returncode:
                print(done.stdout[-4000:], done.stderr[-4000:], sep="\n")
                return done.returncode
    counts = parse_summary(outputs["cold"])
    line = {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "cold_s": wall["cold"],
        "warm_s": wall["warm"],
        "passed": counts.get("passed", 0),
        "xfailed": counts.get("xfailed", 0),
        "slowest": counts["slowest"],
    }
    with TRAJECTORY.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(line) + "\n")
    print(json.dumps({k: v for k, v in line.items() if k != "slowest"}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
