"""Deliberate-failure driver exercising the hardened batch executor.

Not a paper artefact: a microscopic driver whose failure modes are part
of its parameter space, so the executor's crash isolation and timeout
machinery can be exercised from a campaign manifest and from CI
without a purpose-built harness::

    python -m repro.runtime.campaign run benchmarks/campaigns/chaos.toml \\
        --out runs/chaos --timeout 30

``crash=1`` raises after the work, ``sleep=N`` stalls for N wall seconds
(pair with ``--timeout``), and the default parameters complete in
microseconds with a deterministic payload — so a chaos campaign mixes
healthy and failing cells at will, and the healthy results still land in
the cache.
"""

from __future__ import annotations

import os
import random
import time

from .common import ExperimentResult


def run(duration: float = 0.25, dt: float = 0.004, seed: int = 0,
        crash: int = 0, sleep: float = 0.0,
        scale: float = 1.0) -> ExperimentResult:
    """Deterministic pseudo-experiment with opt-in failure modes.

    Args:
        duration / dt: Sample count, mimicking a real driver's axes.
        seed: Random seed for the payload.
        crash: Raise ``RuntimeError`` (after doing the work) when truthy.
        sleep: Stall this many wall-clock seconds before finishing —
            a timing-out spec under a per-spec deadline.
        scale: Multiplier on the payload samples.
    """
    rng = random.Random((seed, duration, dt, scale).__repr__())
    samples = [rng.random() * scale
               for _ in range(max(1, int(duration / dt)))]
    if sleep > 0:
        time.sleep(sleep)
    if crash:
        raise RuntimeError(
            f"selftest: deliberate crash (crash={crash}, seed={seed})")
    result = ExperimentResult(name="selftest")
    result.data["mean"] = sum(samples) / len(samples)
    result.data["n"] = len(samples)
    return result


def sleepy_run(marker: str, sleep: float = 30.0, duration: float = 0.25,
               dt: float = 0.004, seed: int = 0) -> ExperimentResult:
    """Stall for ``sleep`` seconds on the first execution only.

    The first run writes the ``marker`` file and then sleeps (timing out
    under a per-spec deadline); any later run finds the marker and
    completes immediately.  This is the re-run-after-timeout fixture: a
    spec that timed out must be *re-executed* by the next run of its
    batch — where it now succeeds — rather than treated as done.
    Not reachable from the runner (the marker is a string); tests and API
    users build specs against it directly.
    """
    first = not os.path.exists(marker)
    if first:
        with open(marker, "w", encoding="ascii") as handle:
            handle.write("slept")
        time.sleep(sleep)
    result = run(duration=duration, dt=dt, seed=seed)
    result.data["slept"] = first
    return result


def hard_exit(duration: float = 0.25, dt: float = 0.004, seed: int = 0,
              code: int = 17) -> ExperimentResult:
    """Kill the interpreter outright — a worker-death (not raise) crash.

    Only ever run this under the hardened executor: in-process execution
    would take the caller down with it (that being the point).
    """
    os._exit(int(code))
