"""The repository's own checkers under ``benchmarks/``: the exact-valued
per-layer count gate (``check_layer_counts.py``) and the constructor
option census (``check_option_census.py``)."""

import importlib.util
import json
import pathlib

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_benchmark_script(name):
    spec = importlib.util.spec_from_file_location(
        name, _ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layer_counts = _load_benchmark_script("check_layer_counts")


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
