"""Shared pytest fixtures and path setup for the test suite."""

from __future__ import annotations

import os
import pathlib
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List

import pytest

# Allow running the tests from a source checkout without installation.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.runtime import make_network  # noqa: E402
from repro.simulator import Flow, mbps_to_bytes_per_sec  # noqa: E402
from repro.cc import Cubic, NullCC  # noqa: E402
from repro.traffic import PoissonSource  # noqa: E402


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the scenario-result cache at a per-test directory.

    Unit tests must neither read stale entries from nor write entries into
    the user's real ``~/.cache/repro-runtime``.  The one cache that
    outlives a test is the toy table's session directory
    (:func:`toy_table`'s ``cache_dir``): a test that means to read it
    points ``REPRO_CACHE_DIR`` there itself.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@dataclass(frozen=True)
class ToyRun:
    """One toy call: its payload and its ``TopologyNetwork.run`` calls."""

    payload: Any
    network_runs: int


@dataclass
class ToyTable:
    """What :func:`toy_table` ran, and into which cache."""

    cache_dir: pathlib.Path
    started_empty: bool
    #: The registry keys whose call was run, in the order run.
    calls: List[str] = field(default_factory=list)
    #: Every ``TOY`` key; keys that share a call share one entry.
    runs: Dict[str, ToyRun] = field(default_factory=dict)


@pytest.fixture(scope="session")
def toy_table(tmp_path_factory):
    """Every distinct toy call of ``test_experiments.TOY``, run once.

    The one place under ``tests/`` where a toy's own payload is computed:
    serially, with the conservation audit on (``REPRO_AUDIT=1``) and the
    result cache on, into a session cache directory created empty here.
    fig19 shares fig18's call, so it shares fig18's entry.  A test that
    calls a front-end again with its ``TOY`` parameters against
    ``cache_dir`` is served every case from that cache.
    """
    from repro.experiments import EXPERIMENT_INDEX
    from test_experiments import TOY, _count_network_runs, _front_end

    cache_dir = tmp_path_factory.mktemp("toy-table-cache")
    table = ToyTable(cache_dir, started_empty=not any(cache_dir.iterdir()))
    first = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        patch.setenv("REPRO_AUDIT", "1")
        patch.setenv("REPRO_BENCH_WORKERS", "1")
        patch.delenv("REPRO_NO_CACHE", raising=False)
        network_runs = _count_network_runs(patch)
        for key in sorted(TOY):
            call = (EXPERIMENT_INDEX[key], id(TOY[key]))
            if call not in first:
                before = len(network_runs)
                payload = _front_end(key)(**TOY[key])
                first[call] = ToyRun(payload, len(network_runs) - before)
                table.calls.append(key)
            table.runs[key] = first[call]
    return table


@pytest.fixture
def payload_dumps(tmp_path, monkeypatch):
    """Count ``pickle.dumps`` calls on experiment payloads, across forks.

    Patches ``pickle.dumps`` (forked workers inherit the patch) to append
    ``<pid> <sha256 of the bytes produced>`` to a log file whenever the
    object pickled is an ``ExperimentResult``; returns a callable that
    reads the log back as ``[(pid, sha256), ...]``.
    """
    import hashlib
    import pickle

    from repro.experiments.common import ExperimentResult

    log = tmp_path / "payload-dumps.log"
    real_dumps = pickle.dumps

    def logging_dumps(obj, *args, **kwargs):
        data = real_dumps(obj, *args, **kwargs)
        if isinstance(obj, ExperimentResult):
            with open(log, "a", encoding="ascii") as handle:
                handle.write(
                    f"{os.getpid()} {hashlib.sha256(data).hexdigest()}\n")
        return data

    monkeypatch.setattr(pickle, "dumps", logging_dumps)

    def entries():
        if not log.exists():
            return []
        return [(int(pid), sha) for pid, sha in
                (line.split() for line in log.read_text().splitlines())]
    return entries


@pytest.fixture
def small_network():
    """A 24 Mbit/s, 100 ms-buffer network with a coarse tick for fast tests."""
    network = make_network(link_mbps=24, buffer_ms=100, dt=0.004)
    return network, network.link


@pytest.fixture
def mu_24() -> float:
    """Link rate of the small_network fixture, in bytes/s."""
    return mbps_to_bytes_per_sec(24)


def add_cubic(network, rtt: float = 0.05, name: str = "cubic") -> Flow:
    """Convenience used by several test modules."""
    flow = Flow(cc=Cubic(), prop_rtt=rtt, name=name)
    network.add_flow(flow)
    return flow


def add_poisson(network, rate: float, rtt: float = 0.05,
                name: str = "poisson", seed: int = 1) -> Flow:
    """Add an inelastic Poisson cross flow."""
    flow = Flow(cc=NullCC(), prop_rtt=rtt,
                source=PoissonSource(rate, seed=seed), name=name)
    network.add_flow(flow)
    return flow
