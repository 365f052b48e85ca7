"""Scenario-batch execution runtime.

This package is the repository's answer to "every driver re-simulates from
scratch on each invocation": a :class:`ScenarioSpec` fully describes one
simulation (target function plus canonicalised parameters), a
:class:`BatchExecutor` fans a batch of specs across persistent isolated
worker processes and memoises each result in an on-disk cache keyed by
spec hash under the dependency-aware digest of the spec's driver module
(:mod:`repro.runtime.depgraph`), and :mod:`repro.runtime.build` houses the
network/scheme factories shared by every driver.

The campaign layer — declarative manifests
(:mod:`repro.runtime.manifest`) and the ``repro-campaign`` runner/CLI
(:mod:`repro.runtime.campaign`) — is deliberately *not* re-exported here:
every driver imports ``repro.runtime``, so anything this ``__init__``
pulls in lands in every driver's cache-key dependency closure, and an
edit to the campaign front-end would needlessly cold-start all simulation
caches.  Import those submodules directly.

Environment knobs:

``REPRO_BENCH_WORKERS``
    Worker processes per batch (default ``os.cpu_count()``).
``REPRO_CACHE_DIR``
    Cache directory (default ``~/.cache/repro-runtime``).
``REPRO_NO_CACHE``
    Set to ``1`` to disable the on-disk cache entirely.

Layering rule: ``repro.runtime`` never imports ``repro.experiments`` —
drivers import the runtime, not the reverse.
"""

from .build import (
    FluidClassSpec,
    LinkSpec,
    flap_fault_specs,
    make_multihop_network,
    make_network,
    make_scheme,
    make_topology,
)
from .cache import ResultCache, cache_enabled, default_cache_dir
from .depgraph import DependencyGraph
from .executor import (
    BatchExecutor,
    SpecExecutionError,
    SpecFailure,
    configured_workers,
    execute_spec,
)
from .journal import BatchJournal
from .metrics import (
    METRICS_SCHEMA_VERSION,
    OUTCOMES,
    metrics_record,
    tally,
    validate_metrics_record,
)
from .spec import ScenarioSpec

__all__ = [
    "BatchExecutor",
    "BatchJournal",
    "DependencyGraph",
    "FluidClassSpec",
    "LinkSpec",
    "METRICS_SCHEMA_VERSION",
    "OUTCOMES",
    "ResultCache",
    "ScenarioSpec",
    "SpecExecutionError",
    "SpecFailure",
    "cache_enabled",
    "configured_workers",
    "default_cache_dir",
    "execute_spec",
    "flap_fault_specs",
    "make_multihop_network",
    "make_network",
    "make_scheme",
    "make_topology",
    "metrics_record",
    "tally",
    "validate_metrics_record",
]
