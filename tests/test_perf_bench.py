"""The engine perf-bench harness: report schema and regression gating."""

import importlib.util
import json
import pathlib
import re

import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_benchmark_script(name):
    spec = importlib.util.spec_from_file_location(
        name, _ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perf_engine = _load_benchmark_script("perf_engine")
layer_counts = _load_benchmark_script("check_layer_counts")


def _stats(seconds):
    return {"seconds": seconds, "sim_seconds": 1.0, "dt": 0.002,
            "ticks": 500, "ticks_per_sec": 500 / seconds, "flows": 1}


def _write_baseline(path, seconds_by_name):
    report = {"schema": perf_engine.SCHEMA, "bench": "engine",
              "scenarios": {name: _stats(seconds)
                            for name, seconds in seconds_by_name.items()}}
    path.write_text(json.dumps(report))


class TestCheckAgainstBaseline:
    def test_within_threshold_passes(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        _write_baseline(baseline, {"cruise": 1.0})
        code = perf_engine.check_against_baseline(
            {"cruise": _stats(1.5)}, str(baseline), threshold=2.0)
        assert code == 0
        out = capsys.readouterr().out
        assert "OK" in out
        # Per-scenario ratio lines plus a one-line success summary.
        assert "1.50x" in out
        assert "perf check OK: 1 scenario(s)" in out

    def test_regression_fails(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        _write_baseline(baseline, {"cruise": 1.0, "fig09_wan": 2.0})
        code = perf_engine.check_against_baseline(
            {"cruise": _stats(0.9), "fig09_wan": _stats(4.5)},
            str(baseline), threshold=2.0)
        assert code == 1
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "fig09_wan" in captured.err

    def test_new_scenario_without_baseline_is_skipped(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        _write_baseline(baseline, {"cruise": 1.0})
        code = perf_engine.check_against_baseline(
            {"cruise": _stats(1.0), "novel": _stats(99.0)},
            str(baseline), threshold=2.0)
        assert code == 0
        assert "skipping" in capsys.readouterr().out

    def test_missing_baseline_is_an_error(self, tmp_path, capsys):
        code = perf_engine.check_against_baseline(
            {"cruise": _stats(1.0)}, str(tmp_path / "nope.json"),
            threshold=2.0)
        assert code == 2
        assert "cannot read baseline" in capsys.readouterr().err


class TestReport:
    def test_write_report_schema(self, tmp_path):
        out = tmp_path / "BENCH_engine.json"
        report = perf_engine.write_report({"cruise": _stats(1.0)}, str(out))
        on_disk = json.loads(out.read_text())
        assert on_disk == report
        assert on_disk["schema"] == perf_engine.SCHEMA
        assert on_disk["schema_version"] == perf_engine.SCHEMA
        assert on_disk["bench"] == "engine"
        assert "git_commit" in on_disk
        commit = on_disk["git_commit"]
        assert commit is None or re.fullmatch(r"[0-9a-f]{40}(-dirty)?",
                                              commit)
        assert set(on_disk["scenarios"]) == {"cruise"}
        stats = on_disk["scenarios"]["cruise"]
        assert {"seconds", "sim_seconds", "dt", "ticks",
                "ticks_per_sec", "flows"} <= set(stats)

    def test_tracked_scenarios_exist(self):
        assert {"cruise", "contention16", "fig09_wan", "fig09_fluid",
                "fig09_fluid100k"} <= set(perf_engine.SCENARIOS)

    def test_run_scenarios_keeps_fastest_repeat(self, monkeypatch, capsys):
        calls = iter([3.0, 1.0, 2.0])

        def fake_scenario():
            return _stats(next(calls))

        monkeypatch.setitem(perf_engine.SCENARIOS, "fake", fake_scenario)
        results = perf_engine.run_scenarios(["fake"], repeat=3)
        assert results["fake"]["seconds"] == pytest.approx(1.0)


class TestProvenance:
    def test_dirty_baseline_warns_on_check(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        report = {"schema": perf_engine.SCHEMA, "bench": "engine",
                  "git_commit": "a" * 40 + "-dirty",
                  "scenarios": {"cruise": _stats(1.0)}}
        baseline.write_text(json.dumps(report))
        code = perf_engine.check_against_baseline(
            {"cruise": _stats(1.0)}, str(baseline), threshold=2.0)
        assert code == 0
        err = capsys.readouterr().err
        assert "dirty working tree" in err

    def test_clean_baseline_does_not_warn(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        report = {"schema": perf_engine.SCHEMA, "bench": "engine",
                  "git_commit": "a" * 40,
                  "scenarios": {"cruise": _stats(1.0)}}
        baseline.write_text(json.dumps(report))
        assert perf_engine.check_against_baseline(
            {"cruise": _stats(1.0)}, str(baseline), threshold=2.0) == 0
        assert "dirty" not in capsys.readouterr().err


class TestCommittedBaseline:
    """Contracts on the BENCH_engine.json actually checked in."""

    @pytest.fixture(scope="class")
    def committed(self):
        return json.loads((_ROOT / "BENCH_engine.json").read_text())

    def test_provenance_is_a_clean_commit(self, committed):
        commit = committed["git_commit"]
        assert commit is not None, "baseline recorded outside git"
        assert re.fullmatch(r"[0-9a-f]{40}", commit), \
            f"baseline provenance is not a clean commit: {commit}"

    def test_fluid_cost_near_constant_in_flow_count(self, committed):
        """The tentpole's headline: 100k flows within 1.3x of ~2.5k flows."""
        scenarios = committed["scenarios"]
        small = scenarios["fig09_fluid"]
        large = scenarios["fig09_fluid100k"]
        assert large["seconds"] <= 1.3 * small["seconds"], (
            f"fluid aggregate cost scales with flow count: "
            f"{small['seconds']:.2f}s -> {large['seconds']:.2f}s")
        # And the two runs really differ by ~40x in represented flows.
        assert large["cross_flows"] > 30 * small["cross_flows"]


class TestLayerCounts:
    """``benchmarks/check_layer_counts.py``: the exact-valued gate (the
    traced passes themselves run in CI's perf-smoke job, not here)."""

    def test_committed_file_covers_every_exact_metric_of_every_workload(self):
        contract = json.loads((_ROOT / "BENCHMARK.json").read_text())
        committed = json.loads(layer_counts.COUNTS.read_text())
        names = layer_counts.exact_metrics()
        assert "engine.events_executed" in names
        assert "sim.main_tput_mbps" in names
        assert "runtime.cache.bytes_written" not in names
        assert not any(name.endswith("_s") for name in names)  # no timings
        assert sorted(committed) == sorted(
            w["name"] for w in contract["workloads"])
        for workload, values in committed.items():
            assert sorted(values) == names, workload

    def test_any_difference_is_reported_and_identical_sets_are_not(self):
        committed = json.loads(layer_counts.COUNTS.read_text())
        assert layer_counts.differences(committed, committed) == []
        moved = json.loads(json.dumps(committed))
        moved["wan_churn"]["engine.events_executed"] += 1
        del moved["fluid_crowd"]["sim.seconds"]
        del moved["campaign_grid"]
        lines = layer_counts.differences(moved, committed)
        assert len(lines) == 2 + len(committed["campaign_grid"])
        assert any(line.startswith("wan_churn: engine.events_executed = ")
                   for line in lines)
        assert any("fluid_crowd: sim.seconds = None" in line
                   for line in lines)


class TestOptionCensus:
    """``benchmarks/check_option_census.py``: every constructor option is
    set by some caller or explained in ``option_census.json``."""

    census = _load_benchmark_script("check_option_census")

    def test_the_tree_is_clean(self, capsys):
        assert self.census.main() == 0
        assert "UNEXPLAINED" not in capsys.readouterr().out

    def test_sees_keyword_position_forwarding_and_inheritance(self):
        unset = self.census.unset_options()
        # Set by keyword (build.py), by position in super().__init__
        # (CbrSource -> PacedSource), through a subclass's **filters
        # (JsonlTraceSink -> TraceSink) and through make_scheme's
        # **overrides (fig26 spells pulse_frequency=); the last is a
        # dataclass field the endpoint assigns, so state, not an option.
        for option in ("Pie.seed", "PacedSource.max_backlog",
                       "TraceSink.sample", "Nimbus.pulse_frequency",
                       "FlowStats.bytes_sent"):
            assert option not in unset
        # Set by tests only, so unset as far as the census looks.
        assert "Cubic.fast_convergence" in unset

    def test_an_unexplained_or_stale_entry_fails(self, tmp_path, monkeypatch,
                                                 capsys):
        allowed = json.loads(self.census.ALLOW_LIST.read_text())
        dropped = dict(allowed)
        del dropped["Cubic.fast_convergence"]
        dropped["Cubic.init_cwnd_segments"] = "an option that is gone"
        target = tmp_path / "option_census.json"
        target.write_text(json.dumps(dropped))
        monkeypatch.setattr(self.census, "ALLOW_LIST", target)
        assert self.census.main() == 1
        out = capsys.readouterr().out
        assert "Cubic.fast_convergence: UNEXPLAINED" in out
        assert "Cubic.init_cwnd_segments: listed in" in out
