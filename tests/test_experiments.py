"""Experiment drivers: registry completeness and scaled-down smoke runs.

Full-scale reproductions live in ``benchmarks/``; here each driver is run at
a heavily reduced duration just to validate its plumbing and result shape.
"""

import ast
import inspect
import pathlib

import pytest

import test_golden
from repro.analysis.metrics import summarize_flow
from repro.experiments import (
    EXPERIMENT_INDEX,
    ExperimentResult,
    SchemeResult,
    add_main_flow,
    make_network,
    make_scheme,
)
from repro.experiments import (
    accuracy_scenarios,
    fig01_motivation,
    fig06_elasticity_cdf,
    fig10_copa_drop,
    fig16_multiflow,
    fig23_copa_cbr,
    internet_paths,
    table1_classification,
)
from repro.runtime import ScenarioSpec
from repro.simulator import TopologyNetwork, mbps_to_bytes_per_sec

FAST = dict(dt=0.004)


class TestRegistry:
    def test_every_paper_artifact_has_a_driver(self):
        expected = {"fig01", "fig03", "fig04", "fig05", "fig06", "fig08",
                    "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
                    "fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
                    "fig21", "fig22", "fig23", "fig24", "fig25", "fig26",
                    "appE", "table1"}
        assert expected.issubset(EXPERIMENT_INDEX.keys())

    def test_every_driver_has_run(self):
        """Every registry value is a ``"module:function"`` that resolves."""
        for key, target in EXPERIMENT_INDEX.items():
            assert callable(ScenarioSpec.make(target).resolve()), key
        # An id that shares a module names its own function (Appendix A).
        assert EXPERIMENT_INDEX["fig20"].endswith(":run_appendix_a")


class TestCommonHelpers:
    def test_make_scheme_known_names(self):
        mu = mbps_to_bytes_per_sec(96)
        for name in ("nimbus", "cubic", "vegas", "copa", "bbr", "pcc-vivace",
                     "compound", "basicdelay", "newreno", "copa-default",
                     "nimbus-copa", "nimbus-vegas"):
            cc = make_scheme(name, mu)
            assert cc is not None

    def test_make_scheme_unknown(self):
        with pytest.raises(ValueError):
            make_scheme("quic-magic", 1e6)

    def test_make_network_with_pie(self):
        network = make_network(48, buffer_ms=100, aqm_target_ms=20, dt=0.004)
        assert network.link.policy.__class__.__name__ == "Pie"

    def test_add_main_flow(self):
        network = make_network(24, dt=0.004)
        flow = add_main_flow(network, "cubic", 24)
        assert flow.name == "main"
        network.run(2.0)
        assert flow.stats.bytes_sent > 0

    def test_result_table_renders(self):
        network = make_network(24, dt=0.004)
        add_main_flow(network, "cubic", 24)
        network.run(3.0)
        result = ExperimentResult(name="demo", parameters={})
        result.schemes["cubic"] = SchemeResult(
            "cubic", summarize_flow(network.recorder, "main"))
        text = result.table()
        assert "cubic" in text and "tput" in text

    def test_result_table_fits_its_longest_label(self):
        network = make_network(24, dt=0.004)
        add_main_flow(network, "cubic", 24)
        network.run(3.0)
        result = ExperimentResult(name="demo", parameters={})
        summary = summarize_flow(network.recorder, "main")
        result.schemes["cubic"] = SchemeResult("cubic", summary)
        # Short labels print exactly as they always have: an 18-wide column.
        assert result.table().splitlines()[1:] == [
            f"{'scheme':<18}{'tput (Mbit/s)':>15}{'mean delay (ms)':>18}"
            f"{'p95 delay (ms)':>16}",
            f"{'cubic':<18}{summary.mean_throughput_mbps:>15.1f}"
            f"{summary.mean_delay_ms:>18.1f}{summary.p95_delay_ms:>16.1f}"]
        # A long label widens the column for every row instead of
        # shearing its own.
        long_label = "nimbus@ec2-california-hostA"
        result.schemes[long_label] = SchemeResult(long_label, summary)
        header, short, long = result.table().splitlines()[1:]
        assert len(header) == len(short) == len(long)
        assert long.startswith(long_label + "  ")
        assert short.index(f"{summary.mean_throughput_mbps:.1f}") == \
            long.index(f"{summary.mean_throughput_mbps:.1f}")


@pytest.mark.slow
class TestScaledDownDrivers:
    def test_fig01(self):
        result = fig01_motivation.run(schemes=["nimbus"], phase_duration=12,
                                      **FAST)
        extra = result.schemes["nimbus"].extra
        assert extra["inelastic_delay_ms"] >= 0
        assert extra["elastic_throughput"] > 0

    def test_fig06(self):
        result = fig06_elasticity_cdf.run(elastic_fractions=(0.0, 1.0),
                                          duration=18, **FAST)
        medians = result.data["median_eta"]
        assert medians[1.0] > medians[0.0]

    def test_fig09_payload_rows_carry_what_fct_analysis_reads(self,
                                                              monkeypatch):
        from repro.analysis import FctRecord, fct_by_size
        from repro.experiments import fig09_wan

        generators = []

        class Kept(fig09_wan.WanTrafficGenerator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                generators.append(self)

        monkeypatch.setattr(fig09_wan, "WanTrafficGenerator", Kept)
        rows = fig09_wan.run_case("cubic", duration=6.0, seed=3,
                                  **FAST)["data"]["fct_records"]
        live = generators[0].completed_records()
        assert len(rows) == len(live) > 100
        assert rows == [FctRecord(r.size_bytes, r.elastic, r.start_time,
                                  r.fct) for r in live]
        assert fct_by_size(rows) == fct_by_size(live)

    def test_fig10(self):
        result = fig10_copa_drop.run(schemes=["nimbus"], duration=25,
                                     elastic_start=8, **FAST)
        assert "nimbus" in result.schemes

    def test_fig16(self):
        result = fig16_multiflow.run(n_flows=2, stagger=6, flow_duration=20,
                                     link_mbps=48, **FAST)
        assert 0.0 <= result.data["jain_fairness"] <= 1.0
        assert result.data["max_concurrent_pulsers"] <= 2

    def test_fig23(self):
        result = fig23_copa_cbr.run(cbr_fractions=(0.25,), schemes=["nimbus"],
                                    duration=20, **FAST)
        delays = result.data["mean_queue_delay_ms"]["nimbus"]
        assert delays[0.25] < 60.0

    def test_table1_single_row(self):
        result = table1_classification.run(traffic_classes=["constant-stream"],
                                           duration=18, **FAST)
        row = result.data["rows"]["constant-stream"]
        assert row["classification"] in ("elastic", "inelastic")

    def test_internet_paths_single(self):
        profile = internet_paths.DEFAULT_PROFILES[0]
        result = internet_paths.run(profiles=[profile], schemes=["cubic"],
                                    duration=12, **FAST)
        assert f"cubic@{profile.name}" in result.schemes

    def test_accuracy_scenario(self):
        scenario = accuracy_scenarios.run_case(
            "nimbus", kind="poisson", rate_fraction=0.5, elastic_flows=0,
            link_mbps=48, duration=20, **FAST)
        assert 0.0 <= scenario["extra"]["mode_accuracy"] <= 1.0
        assert scenario["summary"].mean_throughput_mbps > 0


# --------------------------------------------------------------------- #
# One way to fan out: a front-end lists cases and reduces payloads
# --------------------------------------------------------------------- #
#: Toy-scale ``run(...)`` kwargs per registry id: the golden scenario
#: wherever the golden table calls the registered front-end itself.
TOY = {key: test_golden.SCENARIOS[key][1]
       for key, target in EXPERIMENT_INDEX.items()
       if test_golden.SCENARIOS.get(key, (None,))[0] == target}
TOY.update({
    "fig09": dict(schemes=("cubic",), duration=4.0, dt=0.004),
    "fig18": dict(profiles=internet_paths.DEFAULT_PROFILES[4:5],
                  schemes=("cubic", "vegas"), duration=4.0, dt=0.004),
    "parking_lot": dict(schemes=("cubic",), hops=2, cross_flows=1,
                        duration=4.0, dt=0.004),
    "link_flap": dict(schemes=("cubic",), period=2.0, phase_duration=2.0,
                      duration=4.0, dt=0.004),
    "reroute": dict(schemes=("cubic",), period=2.0, phase_duration=2.0,
                    duration=4.0, dt=0.004),
    "selftest": {},
})
TOY["fig19"] = TOY["fig18"]

#: The front-ends converted from simulating in ``run`` (PR 22: the
#: in-process loops, fig05 through fig04's cases; PR 23: fig03, fig12, fig16,
#: fig17), each pinned in ``benchmarks/golden.json``.
CONVERTED = ("fig01", "fig03", "fig04", "fig05", "fig06", "fig08", "fig10",
             "fig11", "fig12", "fig14", "fig16", "fig17", "fig20", "fig21",
             "fig22", "fig23", "fig24", "fig25", "fig26", "appE", "table1")

#: ``str(inspect.signature(front_end))`` of every registered front-end,
#: recorded at the commit before the refactor (4bafda3): no caller — 26
#: benchmark files, 2 campaign manifests, 5 e2e workloads, 5 examples,
#: CI's runner calls — had to change.
_WAN = ("(schemes: 'Iterable[str]' = ('nimbus', 'cubic', 'vegas'), "
        "link_mbps: 'float' = 96.0, prop_rtt: 'float' = 0.05, "
        "buffer_ms: 'float' = 100.0, load: 'float' = 0.5, "
        "duration: 'float' = 60.0, dt: 'float' = 0.002, seed: 'int' = 1")
_LINK = ("link_mbps: 'float' = 96.0, prop_rtt: 'float' = 0.05, "
         "buffer_ms: 'float' = 100.0, ")
_TAIL = "dt: 'float' = 0.002, seed: 'int' = 0) -> 'ExperimentResult'"
_PATHS = ("(profiles: 'Optional[Iterable[PathProfile]]' = None, schemes: "
          "'Iterable[str]' = ('nimbus', 'cubic', 'bbr', 'vegas'), "
          "duration: 'float' = 40.0, " + _TAIL)
SIGNATURES = {
    "appE": "(buffer_bdp_multipliers: 'Iterable[float]' = (1.0, 2.0), "
            "prop_rtts: 'Iterable[float]' = (0.05,), categories: "
            "'Iterable[str]' = ('elastic', 'poisson', 'mix'), "
            "pie_targets_bdp: 'Optional[Iterable[float]]' = None, "
            "link_mbps: 'float' = 96.0, duration: 'float' = 40.0, " + _TAIL,
    "fig01": "(schemes: 'Iterable[str]' = ('cubic', 'basicdelay', 'nimbus'),"
             " link_mbps: 'float' = 48.0, prop_rtt: 'float' = 0.05, "
             "buffer_ms: 'float' = 100.0, phase_duration: 'float' = 60.0, "
             + _TAIL,
    "fig03": "(link_mbps: 'float' = 48.0, prop_rtt: 'float' = 0.05, "
             "buffer_ms: 'float' = 100.0, phase_duration: 'float' = 40.0, "
             "sample_interval: 'float' = 0.1, " + _TAIL,
    "fig04": "(" + _LINK + "duration: 'float' = 30.0, "
             "pulse_frequency: 'float' = 5.0, " + _TAIL,
    "fig05": "(**kwargs) -> 'ExperimentResult'",
    "fig06": "(elastic_fractions: 'Iterable[float]' = "
             "(0.0, 0.25, 0.5, 0.75, 1.0), " + _LINK
             + "duration: 'float' = 40.0, cross_share: 'float' = 0.5, "
             + _TAIL,
    "fig08": "(schemes: 'Iterable[str]' = ('nimbus', 'cubic', 'copa'), "
             "schedule: 'Iterable[Tuple[float, int]]' = ((16, 1), (32, 2), "
             "(0, 4), (0, 3), (0, 1), (16, 0), (32, 0), (48, 0), (16, 0)), "
             "phase_duration: 'float' = 20.0, " + _LINK + _TAIL,
    "fig09": _WAN + ") -> 'ExperimentResult'",
    "fig09_fluid": _WAN + ", fluid_arrivals: 'float' = 0.0) -> "
                   "'ExperimentResult'",
    "fig10": "(schemes: 'Iterable[str]' = ('nimbus', 'copa'), " + _LINK
             + "elastic_start: 'float' = 15.0, duration: 'float' = 60.0, "
             "cross_rtt_ratio: 'float' = 2.0, " + _TAIL,
    "fig11": "(schemes: 'Iterable[str]' = ('nimbus', 'cubic', 'vegas'), "
             "video_kinds: 'Iterable[str]' = ('4k', '1080p'), "
             "link_mbps: 'float' = 48.0, prop_rtt: 'float' = 0.05, "
             "buffer_ms: 'float' = 100.0, duration: 'float' = 60.0, "
             + _TAIL,
    "fig12": "(" + _LINK + "load: 'float' = 0.5, duration: 'float' = 80.0, "
             "truth_window: 'float' = 5.0, truth_threshold: 'float' = 0.3, "
             "dt: 'float' = 0.002, seed: 'int' = 1) -> 'ExperimentResult'",
    "fig13": "(loads: 'Iterable[float]' = (0.5, 0.9), pulse_sizes: "
             "'Iterable[float]' = (0.125, 0.25), baselines: 'Iterable[str]' "
             "= ('cubic', 'vegas'), " + _LINK + "duration: 'float' = 60.0, "
             "dt: 'float' = 0.002, seed: 'int' = 1) -> 'ExperimentResult'",
    "fig14": "(schemes: 'Iterable[str]' = ('nimbus', 'copa'), "
             "inelastic_shares: 'Iterable[float]' = (0.3, 0.5, 0.7, 0.85), "
             "inelastic_kinds: 'Iterable[str]' = ('poisson', 'cbr'), "
             "rtt_ratios: 'Iterable[float]' = (1.0, 2.0, 4.0), " + _LINK
             + "duration: 'float' = 50.0, " + _TAIL,
    "fig15": "(rtt_ratios: 'Iterable[float]' = (0.5, 1.0, 2.0), categories: "
             "'Iterable[str]' = ('elastic', 'mix', 'poisson'), mixed_rtts: "
             "'Sequence[float] | None' = None, " + _LINK
             + "duration: 'float' = 50.0, " + _TAIL,
    "fig16": "(n_flows: 'int' = 4, stagger: 'float' = 20.0, "
             "flow_duration: 'float' = 80.0, " + _LINK + _TAIL,
    "fig17": "(n_flows: 'int' = 3, link_mbps: 'float' = 192.0, "
             "prop_rtt: 'float' = 0.05, buffer_ms: 'float' = 100.0, "
             "phase_duration: 'float' = 60.0, warmup: 'float' = 30.0, "
             + _TAIL,
    "fig18": _PATHS,
    "fig19": _PATHS,
    "fig20": "(profile: 'Optional[PathProfile]' = None, "
             "duration: 'float' = 40.0, " + _TAIL,
    "fig21": _WAN + ") -> 'ExperimentResult'",
    "fig22": "(buffer_bdp_multipliers: 'Iterable[float]' = (0.5, 2.0), "
             "schemes: 'Iterable[str]' = ('nimbus', 'cubic'), "
             "link_mbps: 'float' = 96.0, prop_rtt: 'float' = 0.05, "
             "duration: 'float' = 50.0, " + _TAIL,
    "fig23": "(cbr_fractions: 'Iterable[float]' = (0.25, 0.83), schemes: "
             "'Iterable[str]' = ('copa', 'nimbus'), " + _LINK
             + "duration: 'float' = 50.0, " + _TAIL,
    "fig24": "(rtt_ratios: 'Iterable[float]' = (1.0, 4.0), schemes: "
             "'Iterable[str]' = ('copa', 'nimbus'), " + _LINK
             + "duration: 'float' = 60.0, " + _TAIL,
    "fig25": "(pulse_sizes: 'Iterable[float]' = (0.125, 0.25), "
             "link_rates_mbps: 'Iterable[float]' = (96.0,), nimbus_shares: "
             "'Iterable[float]' = (0.25, 0.5), traffic_kind: 'str' = 'mix', "
             "prop_rtt: 'float' = 0.05, buffer_ms: 'float' = 100.0, "
             "duration: 'float' = 40.0, " + _TAIL,
    "fig26": "(pulse_frequencies: 'Iterable[float]' = (5.0, 2.0), " + _LINK
             + "duration: 'float' = 60.0, " + _TAIL,
    "link_flap": "(schemes: 'Iterable[str]' = ('nimbus', 'copa', 'cubic'), "
                 "period: 'float' = 8.0, depth: 'float' = 1.0, "
                 "duty: 'float' = 0.25, drop_queued: 'int' = 0, "
                 "link_mbps: 'float' = 48.0, wan_mbps: 'float' = 96.0, "
                 "hop_delay_ms: 'float' = 10.0, buffer_ms: 'float' = 100.0, "
                 "prop_rtt: 'float' = 0.05, phase_duration: 'float' = 15.0, "
                 "duration: 'float' = 60.0, " + _TAIL,
    "parking_lot": "(schemes: 'Iterable[str]' = ('nimbus', 'cubic', 'vegas')"
                   ", hops: 'int' = 3, cross_flows: 'int' = 2, "
                   "link_mbps: 'float' = 48.0, hop_delay_ms: 'float' = 10.0,"
                   " buffer_ms: 'float' = 100.0, prop_rtt: 'float' = 0.05, "
                   "duration: 'float' = 30.0, " + _TAIL,
    "reroute": "(schemes: 'Iterable[str]' = ('nimbus', 'copa', 'cubic'), "
               "period: 'float' = 8.0, convergence_ms: 'float' = 50.0, "
               "duty: 'float' = 0.25, drop_queued: 'int' = 1, "
               "link_mbps: 'float' = 48.0, primary_mbps: 'float' = 96.0, "
               "backup_mbps: 'float' = 64.0, prop_rtt: 'float' = 0.05, "
               "phase_duration: 'float' = 15.0, duration: 'float' = 60.0, "
               + _TAIL,
    "selftest": "(duration: 'float' = 0.25, dt: 'float' = 0.004, "
                "seed: 'int' = 0, crash: 'int' = 0, sleep: 'float' = 0.0, "
                "scale: 'float' = 1.0) -> 'ExperimentResult'",
    "table1": "(traffic_classes: 'Optional[Iterable[str]]' = None, "
              "**kwargs) -> 'ExperimentResult'",
}


def _front_end(key):
    return ScenarioSpec.make(EXPERIMENT_INDEX[key]).resolve()


def _count_network_runs(monkeypatch):
    """Patch ``TopologyNetwork.run`` to count its calls (in this process)."""
    calls = []
    real_run = TopologyNetwork.run

    def counting_run(self, *args, **kwargs):
        calls.append(self)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(TopologyNetwork, "run", counting_run)
    return calls


class TestOneWayToFanOut:
    def test_toy_table_covers_the_registry(self):
        assert sorted(TOY) == sorted(EXPERIMENT_INDEX)
        assert set(CONVERTED) <= set(TOY)
        assert all(key in test_golden.SCENARIOS for key in CONVERTED)

    @pytest.mark.parametrize("key", sorted(TOY))
    def test_a_second_run_simulates_nothing(self, key, monkeypatch):
        """(a) Every simulation of a front-end is a cached case."""
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "1")
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        calls = _count_network_runs(monkeypatch)
        _front_end(key)(**TOY[key])
        simulated = len(calls)
        assert simulated or key == "selftest"
        _front_end(key)(**TOY[key])
        assert len(calls) == simulated, (
            f"{key}: the second run() called TopologyNetwork.run "
            f"{len(calls) - simulated} time(s) — a front-end lists cases "
            f"for run_cases, it does not simulate")

    @pytest.mark.parametrize("key", sorted(TOY))
    def test_payloads_hold_data_not_simulator_objects(self, key):
        """Every registered front-end, not only the golden scenarios."""
        assert test_golden.simulator_objects(
            _front_end(key)(**TOY[key])) == []

    @pytest.mark.parametrize("key", CONVERTED)
    def test_digest_is_serial_parallel_and_warm_alike(self, key, tmp_path,
                                                      monkeypatch):
        """(b) One payload, however the cases were executed."""
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        digests = {}
        for how, workers, cache in (("serial", "1", "a"), ("warm", "1", "a"),
                                    ("two workers", "2", "b")):
            monkeypatch.setenv("REPRO_BENCH_WORKERS", workers)
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / cache))
            digests[how] = test_golden.canonical_digest(
                _front_end(key)(**TOY[key]))
        assert set(digests.values()) == {test_golden.load_golden()[key]}, \
            digests

    def test_only_common_and_runner_name_the_batch_runtime(self):
        """(c) An ``ast`` walk, as ``check_option_census.py`` does."""
        import repro.experiments

        runtime_names = {"ScenarioSpec", "run_batch", "BatchExecutor"}
        package = pathlib.Path(repro.experiments.__file__).parent
        offenders = {}
        for path in sorted(package.glob("*.py")):
            if path.name in ("common.py", "runner.py"):
                continue
            named = set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.alias):
                    named.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
            if named & runtime_names:
                offenders[path.name] = sorted(named & runtime_names)
        assert offenders == {}

    @pytest.mark.parametrize("key", sorted(EXPERIMENT_INDEX))
    def test_no_front_end_calls_network_run(self, key):
        tree = ast.parse(inspect.getsource(_front_end(key)).lstrip())
        runs = [node for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "run"]
        assert runs == []

    def test_front_end_signatures_are_the_parents(self):
        """(d) No caller had to change."""
        assert {key: str(inspect.signature(_front_end(key)))
                for key in EXPERIMENT_INDEX} == SIGNATURES



# --------------------------------------------------------------------- #
# The paper suite is plain pytest over the cached front-ends
# --------------------------------------------------------------------- #
BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
#: Every ``benchmarks/`` file but the end-to-end benchmark's own.
PAPER_SUITE = sorted(path for path in BENCHMARKS.rglob("*.py")
                     if "e2e" not in path.relative_to(BENCHMARKS).parts)


def _strict_with_reason(call: ast.Call) -> bool:
    keywords = {kw.arg: kw.value for kw in call.keywords}
    strict, reason = keywords.get("strict"), keywords.get("reason")
    return (isinstance(strict, ast.Constant) and strict.value is True
            and isinstance(reason, ast.Constant)
            and bool(str(reason.value).strip()))


class TestPaperSuite:
    def test_benchmarks_call_front_ends_not_the_batch_runtime(self):
        """No second executor and no timing plugin: a benchmark names no
        runtime class and takes no ``benchmark`` fixture."""
        banned = {"ScenarioSpec", "BatchExecutor", "run_batch", "benchmark"}
        offenders = {}
        for path in PAPER_SUITE:
            named = set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.alias):
                    named.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
                elif isinstance(node, ast.arg):
                    named.add(node.arg)
            if named & banned:
                offenders[path.name] = sorted(named & banned)
        assert any(path.name == "test_table1_classification.py"
                   for path in PAPER_SUITE)
        assert offenders == {}

    def test_xfails_are_in_file_strict_and_explained(self):
        """No side file: an artefact that does not reproduce carries a
        strict marker with a written cause, so a fix XPASSes loudly."""
        assert not (BENCHMARKS / "known_failures.json").exists()
        loose = []
        for path in PAPER_SUITE:
            tree = ast.parse(path.read_text())
            explained = {id(node.func) for node in ast.walk(tree)
                         if isinstance(node, ast.Call)
                         and _strict_with_reason(node)}
            loose += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and node.attr == "xfail" and id(node) not in explained]
        assert loose == []

    def test_table1_seed_moves_the_cross_flow_phase(self):
        """``classify``'s seed draws the cross flow's start, so two seeds
        of a backlogged class are two samples, not one sample twice."""
        payloads = [table1_classification.classify(
            "cubic", duration=12.0, seed=seed, **FAST) for seed in (0, 1)]
        assert test_golden.canonical_digest(payloads[0]) != \
            test_golden.canonical_digest(payloads[1])
