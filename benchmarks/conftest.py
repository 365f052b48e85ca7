"""Shared settings for the paper benchmarks.

Every benchmark regenerates one table or figure of the paper at reduced
scale (shorter durations, coarser tick) and asserts the *shape* of the
paper's result — who wins, in which direction, where the crossover lies —
rather than absolute numbers.  A benchmark calls the experiment's front-end
directly: every front-end runs its simulations as one cached batch
(:func:`repro.experiments.common.run_cases`), so a repeated benchmark run
is served from the on-disk result cache (``REPRO_CACHE_DIR`` /
``REPRO_NO_CACHE``) instead of re-simulating.  Wall time is measured by
``benchmarks/e2e``, not here.

A benchmark that does not reproduce the paper yet carries
``@pytest.mark.xfail(strict=True, reason=...)`` on its test, the reason
stating the reading it gets today and the ROADMAP item that owns the fix.
Strict means a fixed artefact XPASSes and turns the run red until its
marker is deleted.
"""

from __future__ import annotations

import os
import sys

# Allow running the benchmarks from a source checkout without installation.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

#: Simulation tick used across benchmarks: coarse enough to be quick, fine
#: enough for 5 Hz pulses and 50 ms RTTs.
BENCH_DT = 0.004
