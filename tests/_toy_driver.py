"""A microscopic fake experiment driver used by the runner/runtime tests.

It mimics the real drivers' contract — a module-level ``run(**params)``
returning an :class:`~repro.experiments.common.ExperimentResult` — while
finishing in microseconds, so tests can exercise batching, caching, and
sweep expansion without paying for a simulation.
"""

from __future__ import annotations

import random

from repro.experiments.common import ExperimentResult, run_cases

#: Incremented on every real execution; cache hits leave it untouched.
#: (Only meaningful for in-process serial execution.)
CALLS = {"run": 0}


def run(duration: float = 1.0, dt: float = 0.004, seed: int = 0,
        scale: float = 1.0) -> ExperimentResult:
    """Deterministic pseudo-experiment parameterised like a real driver."""
    CALLS["run"] += 1
    rng = random.Random((seed, duration, dt, scale).__repr__())
    samples = [rng.random() * scale for _ in range(max(1, int(duration / dt)))]
    result = ExperimentResult(name="toy")
    result.data["seed"] = seed
    result.data["mean"] = sum(samples) / len(samples)
    result.data["n"] = len(samples)
    result.data["samples"] = samples
    return result


def run_no_duration(dt: float = 0.004, seed: int = 0) -> ExperimentResult:
    """Driver variant that rejects ``duration`` (the runner's error path)."""
    return run(duration=0.5, dt=dt, seed=seed)


def run_nested(seeds: tuple = (0, 1, 2), duration: float = 0.1) -> list:
    """Front-end variant: one :func:`run` case per seed, as one batch of
    its own (a nested batch when a spec executes this)."""
    return run_cases(run, [{"seed": seed} for seed in seeds],
                     duration=duration)
