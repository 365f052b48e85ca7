"""The repository's own checkers under ``benchmarks/``: the exact-valued
per-layer count gate (``check_layer_counts.py``), the benchmark's view of
the engine (``e2e/spans.py``) and the constructor option census
(``check_option_census.py``)."""

import importlib.util
import json
import pathlib

from repro.cc import Cubic
from repro.runtime import make_network
from repro.simulator import Flow

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_benchmark_script(name):
    spec = importlib.util.spec_from_file_location(
        name.replace("/", "_"), _ROOT / "benchmarks" / f"{name}.py")
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

    def test_engine_stats_has_every_key_the_benchmark_reads(self):
        """``e2e/spans.py`` sums, peaks and checks these ``engine_stats()``
        keys around every ``TopologyNetwork.run``; without this test a
        missing key would surface only in CI's traced perf-smoke job."""
        spans = _load_benchmark_script("e2e/spans")
        network = make_network(24.0, buffer_ms=100.0, dt=0.002)
        network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05))
        network.run(0.5)
        stats = network.engine_stats()
        read = spans._ENGINE_SUMS + spans._ENGINE_PEAKS + (
            "events_scheduled", "events_executed", "events_pending", "now")
        assert not [key for key in read if key not in stats]
        assert stats["events_executed"] > 0


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
