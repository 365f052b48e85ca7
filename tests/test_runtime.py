"""The scenario-batch runtime: specs, cache, and batch executor."""

from __future__ import annotations

import hashlib
import os
import pickle
import sys

import pytest

import _toy_driver
from repro.runtime import (
    BatchExecutor,
    ResultCache,
    ScenarioSpec,
    tally,
)
from repro.runtime import depgraph
from repro.runtime.cache import MISS
from repro.runtime.spec import canonicalize, expand_grid

#: A real target: the cache keys an entry by its module's digest.
FN = "repro.experiments.selftest:run"


def _module_dir(root):
    """Where ``FN``'s entries live under the cache root ``root``."""
    digest = depgraph.default_graph().digest_for(FN.partition(":")[0])
    return root / f"mod-{digest}"


# --------------------------------------------------------------------- #
# ScenarioSpec
# --------------------------------------------------------------------- #
def test_spec_identity_is_order_and_spelling_independent():
    a = ScenarioSpec.make(_toy_driver.run, seed=1, duration=2.0)
    b = ScenarioSpec.make(_toy_driver.run, duration=2, seed=1.0)
    assert a == b
    assert a.spec_hash() == b.spec_hash()


def test_spec_distinguishes_parameters_and_targets():
    base = ScenarioSpec.make(_toy_driver.run, seed=1)
    assert base.spec_hash() != ScenarioSpec.make(_toy_driver.run,
                                                 seed=2).spec_hash()
    assert base.spec_hash() != ScenarioSpec.make(_toy_driver.run_no_duration,
                                                 seed=1).spec_hash()


def test_spec_label_not_part_of_identity():
    a = ScenarioSpec.make(_toy_driver.run, label="x", seed=1)
    b = ScenarioSpec.make(_toy_driver.run, label="y", seed=1)
    assert a == b and a.spec_hash() == b.spec_hash()


def test_canonicalize_rejects_objects():
    with pytest.raises(TypeError):
        canonicalize(object())
    assert canonicalize([1, (2, 3)]) == (1, (2, 3))
    assert canonicalize({"b": 1, "a": [2]}) == ("!map", ("a", (2,)), ("b", 1))
    # Non-string dict keys cannot round-trip and must be rejected, not
    # silently coerced (coercion would alias distinct cache keys).
    with pytest.raises(TypeError):
        canonicalize({1: 0.5})


def test_dataclass_params_round_trip():
    from repro.experiments.internet_paths import PathProfile

    profile = PathProfile(name="p", link_mbps=40, prop_rtt=0.09,
                          buffer_ms=200, inelastic_load=0.15,
                          elastic_cross=False, wan_mix=False,
                          description="d", extra={})
    spec = ScenarioSpec.make(_toy_driver.run, profiles=(profile,))
    (rebuilt,) = spec.kwargs()["profiles"]
    assert rebuilt == profile
    assert spec.spec_hash() == ScenarioSpec.make(
        _toy_driver.run, profiles=(profile,)).spec_hash()


def test_spec_requires_module_level_function():
    with pytest.raises(TypeError):
        ScenarioSpec.make(lambda: None)


def test_spec_resolve_and_roundtrip():
    spec = ScenarioSpec.make(_toy_driver.run, seed=3, duration=0.1)
    assert spec.resolve() is _toy_driver.run
    assert spec.kwargs() == {"seed": 3, "duration": 0.1}
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec and clone.spec_hash() == spec.spec_hash()


def test_expand_grid_cross_product():
    specs = expand_grid(_toy_driver.run, {"dt": 0.004},
                        {"seed": [1, 2], "scale": [1.0, 2.0, 3.0]})
    assert len(specs) == 6
    assert {s.kwargs()["seed"] for s in specs} == {1, 2}
    assert specs[0].kwargs() == {"dt": 0.004, "seed": 1, "scale": 1}
    # Labels spell values canonically (2.0 -> 2): they are the bracketed
    # part of a campaign cell id.
    assert specs[0].label == "seed=1,scale=1"
    # No axes: a single spec with just the base parameters.
    (only,) = expand_grid(_toy_driver.run, {"seed": 5}, {})
    assert only.kwargs() == {"seed": 5}


# --------------------------------------------------------------------- #
# ResultCache
# --------------------------------------------------------------------- #
def test_cache_round_trip(tmp_path):
    cache = ResultCache(directory=tmp_path, enabled=True)
    assert cache.get("abc", FN) is MISS
    assert cache.put("abc", pickle.dumps({"x": 1}), FN)
    assert cache.get("abc", FN) == {"x": 1}


def test_cache_disabled_via_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    cache = ResultCache(directory=tmp_path)
    assert not cache.put("abc", pickle.dumps(42), FN)
    assert cache.get("abc", FN) is MISS
    assert list(tmp_path.iterdir()) == []


def test_cache_env_spellings(monkeypatch):
    from repro.runtime import cache_enabled

    for value in ("1", "true", "TRUE", "on", "2", "anything"):
        monkeypatch.setenv("REPRO_NO_CACHE", value)
        assert not cache_enabled(), value
    for value in ("", "0", "false", "no", "off", "False"):
        monkeypatch.setenv("REPRO_NO_CACHE", value)
        assert cache_enabled(), repr(value)


def test_cache_ignores_corrupt_entries(tmp_path):
    cache = ResultCache(directory=tmp_path, enabled=True)
    cache.put("abc", pickle.dumps(42), FN)
    (_module_dir(tmp_path) / "abc.pkl").write_bytes(b"not a pickle")
    assert cache.get("abc", FN) is MISS


def test_cache_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    cache = ResultCache()
    cache.put("abc", pickle.dumps(1), FN)
    assert (_module_dir(tmp_path / "elsewhere") / "abc.pkl").exists()


def test_an_unresolvable_target_is_never_cached(tmp_path):
    from repro.runtime import DependencyGraph

    cache = ResultCache(directory=tmp_path, enabled=True)
    assert not cache.put("abc", pickle.dumps(1), "no_such_package.mod:run")
    assert cache.get("abc", "no_such_package.mod:run") is MISS
    assert list(tmp_path.iterdir()) == []

    class BrokenGraph(DependencyGraph):
        def digest_for(self, module):
            raise RuntimeError("graph bug")

    broken = ResultCache(directory=tmp_path, enabled=True,
                         graph=BrokenGraph())
    # Silently re-keying would cold-start every entry; say so instead.
    with pytest.raises(RuntimeError, match="graph bug"):
        broken.get("abc", fn="repro.experiments.link_flap:run")


def test_corrupt_entry_is_deleted_and_reported(tmp_path):
    cache = ResultCache(directory=tmp_path, enabled=True)
    cache.put("abc", pickle.dumps(42), FN)
    path = _module_dir(tmp_path) / "abc.pkl"
    path.write_bytes(b"not a pickle")
    assert cache.get("abc", FN) is MISS
    # The bad entry must not shadow its slot forever.
    assert not path.exists()
    assert cache.take_corrupt() == {"abc"}
    assert cache.take_corrupt() == set()
    # The slot is immediately writable again.
    assert cache.put("abc", pickle.dumps(43), FN)
    assert cache.get("abc", FN) == 43


# --------------------------------------------------------------------- #
# BatchExecutor
# --------------------------------------------------------------------- #
def _batch(n=3, **overrides):
    return [ScenarioSpec.make(_toy_driver.run, seed=i, duration=0.1,
                              **overrides) for i in range(n)]


def test_second_run_is_served_from_cache(tmp_path):
    cache = ResultCache(directory=tmp_path, enabled=True)
    executor = BatchExecutor(workers=1, cache=cache)
    before = _toy_driver.CALLS["run"]
    cold = executor.run(_batch())
    assert _toy_driver.CALLS["run"] == before + 3
    warm = executor.run(_batch())
    assert _toy_driver.CALLS["run"] == before + 3  # no re-execution
    assert pickle.dumps(cold) == pickle.dumps(warm)


def test_serial_and_pooled_runs_are_bit_identical(tmp_path):
    specs = _batch(3)
    serial = BatchExecutor(workers=1,
                           cache=ResultCache(enabled=False)).run(specs)
    pooled = BatchExecutor(workers=2,
                           cache=ResultCache(enabled=False)).run(specs)
    assert pickle.dumps(serial) == pickle.dumps(pooled)


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
def test_a_miss_is_pickled_once_and_stored_as_produced(
        tmp_path, monkeypatch, payload_dumps, workers):
    hashed = []
    real_hash = ScenarioSpec.spec_hash
    monkeypatch.setattr(
        ScenarioSpec, "spec_hash",
        lambda spec: hashed.append(spec) or real_hash(spec))
    cache = ResultCache(directory=tmp_path / "cache", enabled=True)
    specs = _batch(3) + _batch(1)  # the fourth repeats the first
    cold = BatchExecutor(workers=workers, cache=cache).run(specs)
    # One hash per spec: its metrics record reuses the lookup's hash.
    assert len(hashed) == len(specs)
    produced = payload_dumps()
    assert len(produced) == 3  # one dumps per miss, none for the duplicate
    if workers == 1:
        assert {pid for pid, _ in produced} == {os.getpid()}
    else:
        assert os.getpid() not in {pid for pid, _ in produced}
    stored = [hashlib.sha256(entry.read_bytes()).hexdigest()
              for entry in (tmp_path / "cache").rglob("*.pkl")]
    assert sorted(stored) == sorted(sha for _, sha in produced)
    # ...and what the batch returned is what those bytes load to.
    warm = BatchExecutor(workers=1, cache=cache).run(specs)
    assert len(payload_dumps()) == 3  # a hit pickles nothing
    assert [pickle.dumps(result) for result in cold] == \
        [pickle.dumps(result) for result in warm]


def test_cache_disabled_still_pickles_each_miss_once(payload_dumps):
    BatchExecutor(workers=1, cache=ResultCache(enabled=False)).run(_batch(2))
    assert len(payload_dumps()) == 2


def test_put_pickled_writes_the_bytes_verbatim(tmp_path):
    cache = ResultCache(directory=tmp_path, enabled=True)
    data = pickle.dumps({"x": 1}, protocol=2)  # not the protocol put() uses
    assert cache.put("abc", data, FN)
    assert (_module_dir(tmp_path) / "abc.pkl").read_bytes() == data
    assert cache.get("abc", FN) == {"x": 1}


def test_pooled_run_populates_the_shared_cache(tmp_path):
    cache = ResultCache(directory=tmp_path, enabled=True)
    pooled = BatchExecutor(workers=2, cache=cache).run(_batch(2))
    warm = BatchExecutor(workers=1, cache=cache)
    again = warm.run(_batch(2))
    assert pickle.dumps(pooled) == pickle.dumps(again)
    assert tally(warm.last_metrics)["hits"] == 2  # both warm lookups hit


def test_what_a_raising_spec_surfaces_as():
    """In-process execution lets the driver's own exception through; on
    the worker path — fan-out, hardened or not — the spec raised in
    another process, so the batch finishes its siblings and then raises
    one ``SpecExecutionError`` carrying the traceback (before the
    executor paths were merged, the non-hardened pool re-raised the
    driver's exception and abandoned the batch)."""
    from repro.runtime import SpecExecutionError

    selftest = "repro.experiments.selftest:run"
    bad = ScenarioSpec.make(selftest, seed=1, crash=1)
    good = ScenarioSpec.make(selftest, seed=2)
    cold = ResultCache(enabled=False)
    with pytest.raises(RuntimeError, match="deliberate crash") as serial:
        BatchExecutor(workers=1, cache=cold).run([bad, good])
    assert not isinstance(serial.value, SpecExecutionError)
    fanned = BatchExecutor(workers=2, cache=cold)
    assert not fanned.hardened
    with pytest.raises(SpecExecutionError, match="deliberate crash") as fan:
        fanned.run([bad, good])
    assert [failure.outcome for failure in fan.value.failures] == ["error"]
    assert "RuntimeError" in fan.value.failures[0].error
    assert tally(fanned.last_metrics)["executed"] == 2  # the sibling still ran


def test_duplicate_specs_in_one_batch_run_once(tmp_path):
    cache = ResultCache(directory=tmp_path, enabled=True)
    spec = ScenarioSpec.make(_toy_driver.run, seed=42, duration=0.1)
    before = _toy_driver.CALLS["run"]
    results = BatchExecutor(workers=1, cache=cache).run([spec, spec, spec])
    assert _toy_driver.CALLS["run"] == before + 1
    assert len(results) == 3
    assert pickle.dumps(results[0]) == pickle.dumps(results[2])
    # Dedup also applies with the cache disabled.
    before = _toy_driver.CALLS["run"]
    BatchExecutor(workers=1, cache=ResultCache(enabled=False)).run(
        [spec, spec])
    assert _toy_driver.CALLS["run"] == before + 1


def test_partial_cache_hits_fill_only_the_misses(tmp_path):
    cache = ResultCache(directory=tmp_path, enabled=True)
    executor = BatchExecutor(workers=1, cache=cache)
    executor.run(_batch(2))
    before = _toy_driver.CALLS["run"]
    results = executor.run(_batch(4))
    assert _toy_driver.CALLS["run"] == before + 2  # seeds 2, 3 only
    assert [r.data["seed"] for r in results] == [0, 1, 2, 3]


@pytest.mark.parametrize("options", [{}, {"on_error": "record"}],
                         ids=["in-process", "worker"])
def test_a_nested_batch_leaves_the_one_entry_to_its_spec(
        tmp_path, monkeypatch, options):
    """A result is stored by the batch it was asked of: the batch a spec
    opens while it executes is part of that spec, so it writes no entry of
    its own: the spec's entry is the one entry of the result."""
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    spec = ScenarioSpec.make(_toy_driver.run_nested, seeds=(0, 1, 2))
    cold = BatchExecutor(workers=1, **options).run([spec])
    assert len(list((tmp_path / "repro-cache").rglob("*.pkl"))) == 1
    before = _toy_driver.CALLS["run"]
    warm = BatchExecutor(workers=1, **options)
    assert pickle.dumps(warm.run([spec])) == pickle.dumps(cold)
    assert _toy_driver.CALLS["run"] == before
    assert [record["cache"] for record in warm.last_metrics] == ["hit"]
    assert tally(warm.last_metrics)["executed"] == 0


def test_a_nested_batch_reads_no_entry(tmp_path, monkeypatch):
    """...nor reads one: a front-end called directly is the outermost
    batch and keeps its case entries, which the same front-end run as a
    spec does not share."""
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_BENCH_WORKERS", "1")  # CALLS counts here
    cache_dir = tmp_path / "repro-cache"
    _toy_driver.run_nested(seeds=(0, 1))
    assert len(list(cache_dir.rglob("*.pkl"))) == 2
    before = _toy_driver.CALLS["run"]
    BatchExecutor(workers=1).run(
        [ScenarioSpec.make(_toy_driver.run_nested, seeds=(0, 1))])
    assert _toy_driver.CALLS["run"] == before + 2
    assert len(list(cache_dir.rglob("*.pkl"))) == 3


def test_workers_env_is_honoured(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_WORKERS", "7")
    assert BatchExecutor().workers == 7
    monkeypatch.setenv("REPRO_BENCH_WORKERS", "banana")
    with pytest.raises(ValueError):
        BatchExecutor()
    # Inside a pool worker the nested width is always 1.
    monkeypatch.setenv("REPRO_BENCH_WORKERS", "7")
    monkeypatch.setenv("REPRO_RUNTIME_WORKER", "1")
    assert BatchExecutor().workers == 1


def test_run_batch_preserves_order(tmp_path):
    specs = list(reversed(_batch(3)))
    results = BatchExecutor(workers=1,
                            cache=ResultCache(enabled=False)).run(specs)
    assert [r.data["seed"] for r in results] == [2, 1, 0]


def test_an_unresolvable_target_reruns_after_an_edit(tmp_path, monkeypatch):
    """A module the dependency graph cannot resolve (here a namespace
    package: no ``__init__.py``) has no cache key, so an edit to it is
    never hidden behind a stale entry: each run executes it afresh."""
    package = tmp_path / "nspkg_probe"
    package.mkdir()
    module = package / "mod.py"
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    cache_dir = tmp_path / "cache"
    spec = ScenarioSpec.make("nspkg_probe.mod:run")
    seen = []
    for version in ("v1", "version two"):
        module.write_text(f"def run():\n    return {version!r}\n")
        for name in ("nspkg_probe.mod", "nspkg_probe"):
            monkeypatch.delitem(sys.modules, name, raising=False)
        cache = ResultCache(directory=cache_dir, enabled=True)
        seen += BatchExecutor(workers=1, cache=cache).run([spec])
    assert seen == ["v1", "version two"]
    assert not cache_dir.exists() or list(cache_dir.rglob("*")) == []


# --------------------------------------------------------------------- #
# Layering
# --------------------------------------------------------------------- #
def _imports_none_of(module: str, forbidden_prefixes) -> bool:
    """Import ``module`` in a clean interpreter; True if no forbidden
    package was pulled into ``sys.modules``."""
    import os
    import subprocess

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    prefixes = tuple(forbidden_prefixes)
    code = (f"import sys; import {module}; "
            f"bad = [m for m in sys.modules if m.startswith({prefixes!r})]; "
            f"sys.exit(1 if bad else 0)")
    proc = subprocess.run([sys.executable, "-c", code], env=env)
    return proc.returncode == 0


def test_runtime_does_not_import_experiments():
    """The runtime layer must stay importable without the driver layer."""
    assert _imports_none_of("repro.runtime", ("repro.experiments",))


def test_topology_layer_imports_neither_runtime_nor_experiments():
    """The simulator's topology core sits below both upper layers: it must
    be importable with no runtime (and no driver) module loaded."""
    assert _imports_none_of("repro.simulator.topology",
                            ("repro.runtime", "repro.experiments"))


def test_one_engine_one_forwarding_path():
    """The engine ladder must not grow back: one class under
    ``repro.simulator`` owns the tick loop, each forwarding primitive is
    defined once, and nothing in the package subclasses the engine or the
    topology to swap one out."""
    import ast
    import pathlib

    import repro

    root = pathlib.Path(repro.__file__).parent
    steppers, definitions, subclasses = [], [], []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = {getattr(base, "id", getattr(base, "attr", None))
                         for base in node.bases}
                if bases & {"Topology", "TopologyNetwork"}:
                    subclasses.append(f"{path.name}:{node.name}")
            if path.parent.name != "simulator":
                continue
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(item, ast.FunctionDef) and item.name == "step"
                    for item in node.body):
                steppers.append(node.name)
            if isinstance(node, ast.FunctionDef) and node.name in (
                    "_emit_all", "_serve_links", "_forward", "add_flow"):
                definitions.append(node.name)
    assert steppers == ["TopologyNetwork"]
    assert sorted(definitions) == ["_emit_all", "_forward", "_serve_links",
                                   "add_flow"]
    assert subclasses == []


def test_each_decision_is_described_once():
    """The second descriptions deleted so far must not grow back (the
    journal's own schema and batch ids among them): no name of theirs
    anywhere under ``src/``, one cross-product
    expander for the runtime (``spec.expand_grid``) and none in the
    runner, a manifest layer that does not reach into the network
    builders, one file that transforms (``np.fft``), one definition of
    the mode vocabulary, and a ``core/`` that probes nothing."""
    import ast
    import pathlib
    import re

    import repro

    root = pathlib.Path(repro.__file__).parent
    banned = ("FaultSpec", "make_fault_schedule", "_parse_sweep_overrides",
              "_LinkRecord", "_FluidRecord", "_link_bins", "_fluid_bins",
              "fft_magnitude", "magnitude_at", "band_peak", "BatchStats",
              "last_stats", "qdelay_cnt", "batch_id", "default_journal_path",
              "write_metrics", "JOURNAL_SCHEMA_VERSION", "run_one",
              "_sweep_row_label")
    products, transforms, vocabularies = [], [], []
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        where = f"{path.parent.name}/{path.name}"
        for name in banned:
            assert not re.search(rf"\b{name}\b", source), \
                f"{name} is back in {path.name}"
        if "np.fft" in source:
            transforms.append(where)
        vocabularies += [where] * len(re.findall(r"MODE_COMPETITIVE = ",
                                                 source))
        assert path.parent.name != "core" or "hasattr(" not in source, \
            f"{where} probes an object for attributes"
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Attribute) and node.attr == "product"
                    and getattr(node.value, "id", None) == "itertools") or (
                    isinstance(node, ast.ImportFrom)
                    and node.module == "itertools"
                    and any(a.name == "product" for a in node.names)):
                products.append(f"{path.parent.name}/{path.name}")
    assert [p for p in products if p.startswith(("runtime/", "experiments/"))
            ] == ["runtime/spec.py"]
    assert transforms == ["core/elasticity.py"]
    assert vocabularies == ["cc/base.py"]
    manifest = ast.parse((root / "runtime" / "manifest.py").read_text())
    imported = {node.module for node in ast.walk(manifest)
                if isinstance(node, ast.ImportFrom)}
    assert "build" not in imported and "repro.runtime.build" not in imported


# --------------------------------------------------------------------- #
# Batch statistics (--profile backing data)
# --------------------------------------------------------------------- #
def test_batch_stats_cold_run_counts_misses(tmp_path):
    cache = ResultCache(directory=tmp_path, enabled=True)
    executor = BatchExecutor(workers=1, cache=cache)
    spec = ScenarioSpec.make(_toy_driver.run, seed=42, duration=0.1)
    executor.run(_batch(2) + [spec, spec])
    stats = tally(executor.last_metrics)
    assert (stats["hits"], stats["misses"]) == (0, 4)
    assert stats["executed"] == 3  # the duplicated spec simulated once
    timings = [record["seconds"] for record in executor.last_metrics]
    assert len(timings) == stats["specs"] == 4
    assert all(seconds is not None and seconds >= 0.0 for seconds in timings)
    # Duplicates report the one shared execution's wall time, counted once.
    assert timings[2] == timings[3]
    assert stats["total_seconds"] == sum(timings[:3])


def test_batch_stats_warm_run_counts_hits(tmp_path):
    cache = ResultCache(directory=tmp_path, enabled=True)
    BatchExecutor(workers=1, cache=cache).run(_batch(2))
    executor = BatchExecutor(workers=1, cache=cache)
    executor.run(_batch(3))
    stats = tally(executor.last_metrics)
    assert (stats["hits"], stats["misses"], stats["executed"]) == (2, 1, 1)
    assert [record["seconds"] is None for record in executor.last_metrics] \
        == [True, True, False]
    assert tally(executor.last_metrics)["specs"] == 3


def test_batch_tally_before_any_run_is_empty():
    executor = BatchExecutor(workers=1, cache=ResultCache(enabled=False))
    assert executor.last_metrics == []
    assert tally(executor.last_metrics)["specs"] == 0


def test_executor_reports_corrupt_entries_in_metrics(tmp_path):
    cache = ResultCache(directory=tmp_path, enabled=True)
    (spec,) = _batch(1)
    BatchExecutor(workers=1, cache=cache).run([spec])
    (entry,) = list(tmp_path.rglob("*.pkl"))
    assert entry.parent.name.startswith("mod-")  # per-module layout
    entry.write_bytes(b"\x80")  # truncated pickle
    executor = BatchExecutor(workers=1, cache=cache)
    results = executor.run([spec])
    assert results[0].data["seed"] == 0  # re-executed fine
    # The three cache states are disjoint: a corrupt entry is re-executed
    # but is not also a miss (runner --profile, telemetry summary and
    # campaign totals all read this one tally).
    stats = tally(executor.last_metrics)
    assert (stats["hits"], stats["misses"], stats["corrupt"]) == (0, 0, 1)
    assert stats["executed"] == 1
    record = executor.last_metrics[0]
    assert record["cache"] == "corrupt"
    # The repaired entry serves the next run as a normal hit.
    warm = BatchExecutor(workers=1, cache=cache)
    warm.run([spec])
    assert warm.last_metrics[0]["cache"] == "hit"
