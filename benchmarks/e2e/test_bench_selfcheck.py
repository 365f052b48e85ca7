"""Self-check of the end-to-end benchmark harness (tier-1, a few seconds).

Runs every workload once at a tiny duration *in this process* — the same
``worker.run_pass`` the benchmark launches in fresh processes — so the
span wrappers are installed and removed inside the shared pytest process,
which is exactly where a leaked wrapper would hurt.
"""

from __future__ import annotations

import copy
import json
import os
import re
import time
from unittest import mock

import pytest

import bench
import spans
import worker

_SCALE = 0.05
_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _launch_here(workload, seed, mode, work_dir, scale=1.0, spans_out=None,
                 cpu=None):
    begin = time.perf_counter()
    with mock.patch.dict(os.environ):
        worker.isolate_environment(os.path.join(work_dir, "cache"))
        report = worker.run_pass(workload, seed, mode, work_dir, scale=scale,
                                 spans_out=spans_out)
    return report, time.perf_counter() - begin


def _wrapped_attributes():
    """(owner, attribute name) of everything ``spans.installed`` replaces."""
    targets = [(spans._resolve(path), attr)
               for _, path, methods in spans._HOT for attr in methods]
    targets += [(spans._resolve(path), attr) for _, path, attr in spans._KEPT]
    targets += [(owner, attr) for owner in spans._cc_classes()
                for attr in spans._CC_CALLBACKS if attr in vars(owner)]
    network = spans._resolve("repro.simulator.topology:TopologyNetwork")
    executor = spans._resolve("repro.runtime.executor:BatchExecutor")
    return targets + [(network, "run"), (network, "schedule_call"),
                      (executor, "run")]


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    before = [vars(owner)[attr] for owner, attr in _wrapped_attributes()]
    work_root = tmp_path_factory.mktemp("e2e")
    reports = bench.measure(
        list(bench.BY_NAME), seed=1, trace=True, repeats=1, warm=1,
        scale=_SCALE, launch=_launch_here, work_root=str(work_root))
    after = [vars(owner)[attr] for owner, attr in _wrapped_attributes()]
    assert work_root.is_dir() and not any(work_root.iterdir())
    # The traced passes ran in this process: every original is back.
    assert all(a is b for a, b in zip(before, after))
    return reports


def test_every_workload_reports_every_metric(reports):
    assert set(reports) == set(bench.BY_NAME)
    for workload, report in reports.items():
        assert report["failed"] == 0, report["failures"]
        assert set(report["end_to_end"]) == \
            set(bench.END_TO_END) | {bench.FAILED_SHARE[0]}
        assert len(report["end_to_end"]) == 6
        for name in bench.END_TO_END:
            assert report["end_to_end"][name]["value"] > 0, (workload, name)
        assert list(report["per_layer"]) == \
            [name for name, _, _ in spans.PER_LAYER]


def test_payloads_and_layers_look_as_designed(reports):
    for report in reports.values():
        coverage = report["per_layer"]["harness.span_coverage"]["value"]
        assert 0.99 <= coverage <= 1.01
    layer = {w: {k: v["value"] for k, v in r["per_layer"].items()}
             for w, r in reports.items()}
    assert layer["wan_churn"]["traffic.flows_created"] > 0
    assert layer["detector_mix"]["traffic.arrivals"] == 0
    assert layer["detector_mix"]["core.estimator.calls"] > 0
    assert layer["fluid_crowd"]["core.nimbus.calls"] == 0
    assert layer["fluid_crowd"]["fluid.calls"] > 0
    assert layer["multihop_faults"]["link.service_calls"] > \
        layer["detector_mix"]["link.service_calls"]      # more hops
    grid = layer["campaign_grid"]
    assert grid["runtime.manifest.cells"] == 36
    assert grid["runtime.executor.spawned"] == 36
    assert grid["runtime.cache.misses"] == 36
    assert grid["runtime.journal.records"] == 36
    assert grid["engine.ticks"] == 0     # engine spans die with the forks


def test_manifest_matches_the_contract():
    manifest = bench.manifest()
    with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        assert json.load(f) == manifest
    names = [entry["name"] for group in ("workloads", "end_to_end",
                                         "per_layer")
             for entry in manifest[group]]
    assert all(_NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert 2 <= len(manifest["workloads"]) <= 8
    assert len(manifest["end_to_end"]) <= 16
    assert len(manifest["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in manifest["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in manifest["end_to_end"])} \
        in manifest["end_to_end"]


def test_span_self_times_add_up_and_wrappers_come_off():
    recorder = spans.SpanRecorder()
    targets = _wrapped_attributes()
    before = [vars(owner)[attr] for owner, attr in targets]

    def leaf():
        time.sleep(0.002)

    def branch():
        time.sleep(0.001)
        recorder.hot(leaf, "leaf", "leaf")()
        recorder.hot(leaf, "leaf", "leaf")()

    with spans.installed(recorder):
        during = [vars(owner)[attr] for owner, attr in targets]
        with recorder.span(*spans.ROOT):
            recorder.kept(branch, "branch", "branch")()
            with pytest.raises(ZeroDivisionError):
                recorder.hot(lambda: 1 / 0, "leaf", "raises")()
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(
        before, [vars(owner)[attr] for owner, attr in targets]))
    root_s = recorder.entry(*spans.ROOT)[1]
    total_self = sum(slot[2] for slot in recorder.totals.values())
    assert total_self == pytest.approx(root_s, rel=0.01)
    assert recorder.entry("leaf", "leaf")[0] == 2
    assert recorder.entry("branch", "branch")[2] < \
        recorder.entry("branch", "branch")[1]
    assert [span[1] for span in recorder.spans] == [1, 0]   # parent ids


def _write(path, *runs):
    if path.exists():
        path.unlink()
    for reports in runs:
        bench._append_results(str(path), seed=1, reports=reports)
    return str(path)


def _scaled(reports, workload, name, factor):
    """A copy of one run with one metric of one workload multiplied."""
    run = copy.deepcopy(reports)
    run[workload]["end_to_end"][name]["value"] *= factor
    return run


def test_compare_flags_a_regression_and_passes_identical_inputs(
        reports, tmp_path, capsys):
    assert bench.compare(_write(tmp_path / "a.jsonl", reports),
                         _write(tmp_path / "a.jsonl", reports)) == 0
    # Ten steady runs a side (quartiles 2 % apart): the medians decide.
    steady = [0.99, 0.99, 0.99, 1.0, 1.0, 1.0, 1.0, 1.01, 1.01, 1.01]
    for name, (_, _, bound, _) in bench.END_TO_END.items():
        base = _write(tmp_path / "base.jsonl", *[
            _scaled(reports, "fluid_crowd", name, f) for f in steady])
        for factor, expected in ((1 + bound / 2, 0), (1 + bound + 0.05, 1)):
            other = _write(tmp_path / "b.jsonl", *[
                _scaled(reports, "fluid_crowd", name, f * factor)
                for f in steady])
            assert bench.compare(base, other) == expected, (name, factor)
    out = capsys.readouterr().out
    assert "worse" in out and "base A =" in out
    # Runs that spread wider than the bound and overlap: unresolved.
    noisy = [_scaled(reports, "fluid_crowd", "cold_wall_s", f)
             for f in (0.7, 1.0, 1.4, 2.0)]
    louder = [_scaled(reports, "fluid_crowd", "cold_wall_s", f)
              for f in (1.3, 1.5, 1.9, 2.6)]
    assert bench.compare(_write(tmp_path / "c.jsonl", *noisy),
                         _write(tmp_path / "d.jsonl", *louder)) == 0
    assert "unresolved" in capsys.readouterr().out


def _stub_launch(spoil):
    """A worker stand-in; ``spoil(workload, mode, report)`` may break it."""
    layers = {name: 0.0 for name, _, _ in spans.PER_LAYER}

    def launch(workload, seed, mode, work_dir, scale=1.0, spans_out=None,
               cpu=None):
        report = {"mode": mode, "ops": 1, "failures": [],
                  "digests": {"op": "ok"}, "setup_s": 0.1, "import_s": 0.1,
                  "wall_s": 1.0, "cpu_s": 1.0, "rss_mb": 1.0}
        if mode == "traced":
            report["layers"] = layers
        spoil(workload, mode, report)
        return report, 0.5
    return launch


def test_a_wrong_digest_is_a_failed_operation(tmp_path):
    def spoil(workload, mode, report):
        if (workload, mode) == ("wan_churn", "warm"):
            report["digests"] = {"op": "bad"}

    reports = bench.measure(list(bench.BY_NAME), seed=1, trace=True,
                            repeats=2, warm=2, launch=_stub_launch(spoil),
                            work_root=str(tmp_path))
    assert tmp_path.is_dir()      # the caller's directory is not ours to remove
    assert reports["wan_churn"]["failed"] == 2
    assert reports["wan_churn"]["end_to_end"]["failed_share"]["value"] > 0
    assert reports["detector_mix"]["failed"] == 0

    code = bench.main(["--workload", "wan_churn", "--repeats", "1"],
                      launch=_stub_launch(spoil))
    assert code != 0


def test_failure_paths_of_the_contract_form_report(capsys):
    def spoil(workload, mode, report):
        if mode == "traced":    # what worker.run_pass returns when it raises
            del report["layers"], report["digests"]["op"]
            report["failures"] = [{"op": "batch", "reason": "boom"}]

    code = bench.main(["--workload", "wan_churn", "--repeats", "1",
                       "--trace", "1"], launch=_stub_launch(spoil))
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert last == {"correct": False, "attempted": 9, "failed": 1,
                    "metrics": {}}

    # A hung worker is killed and reported, not left to a traceback.
    with mock.patch.object(bench, "_WORKER_TIMEOUT_S", 0.01):
        code = bench.main(["--workload", "wan_churn", "--repeats", "1"])
    captured = capsys.readouterr()
    assert code == 2 and "still running" in captured.err
    assert not captured.out.strip()
