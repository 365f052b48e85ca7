"""Experiment drivers: registry completeness and scaled-down smoke runs.

Full-scale reproductions live in ``benchmarks/``; here each driver is run at
a heavily reduced duration just to validate its plumbing and result shape.
"""

import ast
import inspect
import pathlib
import sys

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
        for name in ("nimbus", "basicdelay", "cubic", "vegas", "copa",
                     "bbr"):
            assert make_scheme(name, mu).name == name  # one name per scheme

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
        result = ExperimentResult(name="demo")
        result.schemes["cubic"] = SchemeResult(
            "cubic", summarize_flow(network.recorder, "main"))
        text = result.table()
        assert "cubic" in text and "tput" in text

    def test_result_table_fits_its_longest_label(self):
        network = make_network(24, dt=0.004)
        add_main_flow(network, "cubic", 24)
        network.run(3.0)
        result = ExperimentResult(name="demo")
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
#: wherever the golden table calls the registered front-end itself.  Each
#: distinct call runs once per session, in ``conftest.py:toy_table``.
TOY = {key: test_golden.SCENARIOS[key][1]
       for key in test_golden.FRONT_END_SCENARIOS}
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

#: The only parameters a front-end names that its case also takes, each
#: with the reason it is named; every other case parameter passes through
#: the front-end's ``**params`` to ``run_cases``, so the case's signature
#: holds its one default.
NAMED_CASE_PARAMETERS = {
    "fig01": {"phase_duration": "the reduction reads it: the phase windows"},
    "fig08": {"schedule": "an iterable, made a tuple before the spec"},
    "fig14": {"duration": "50 s, where the case's default is 60 s"},
    "fig15": {"duration": "50 s, where the case's default is 60 s"},
    "fig20": {"profile": "the case has no default; DEFAULT_PROFILES[0]"},
    "fig24": {"link_mbps": "the reduction reads it: fair_share_mbps"},
    "fig25": {"duration": "40 s, where the case's default is 60 s"},
    "appE": {"duration": "40 s, where the case's default is 60 s"},
}


def _front_end(key):
    return ScenarioSpec.make(EXPERIMENT_INDEX[key]).resolve()


def _case_of(key):
    """The function a front-end runs per case; ``None`` for fig05 (it
    runs fig04's front-end) and selftest (its front-end is its case)."""
    module = sys.modules[_front_end(key).__module__]
    return getattr(module, "run_case", getattr(module, "classify", None))


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

    def test_toy_table_runs_each_call_once_into_an_empty_cache(self,
                                                               toy_table):
        calls = {(EXPERIMENT_INDEX[key], id(TOY[key])) for key in TOY}
        assert toy_table.started_empty
        assert sorted(toy_table.runs) == sorted(TOY)
        assert len(set(toy_table.calls)) == len(toy_table.calls) == len(calls)
        assert "fig19" not in toy_table.calls
        assert toy_table.runs["fig19"] is toy_table.runs["fig18"]
        assert [key for key, run in toy_table.runs.items()
                if not run.network_runs] == ["selftest"]

    @pytest.mark.parametrize("key", sorted(TOY))
    def test_a_second_run_simulates_nothing(self, key, toy_table,
                                            monkeypatch):
        """(a) Every simulation of a front-end is a cached case: called
        again against the toy table's cache, it simulates nothing."""
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(toy_table.cache_dir))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        calls = _count_network_runs(monkeypatch)
        _front_end(key)(**TOY[key])
        assert calls == [], (
            f"{key}: the second run() called TopologyNetwork.run "
            f"{len(calls)} time(s) — a front-end lists cases for "
            f"run_cases, it does not simulate")

    @pytest.mark.parametrize("key", sorted(TOY))
    def test_payloads_hold_data_not_simulator_objects(self, key, toy_table):
        """Every registered front-end, not only the golden scenarios."""
        assert test_golden.simulator_objects(
            toy_table.runs[key].payload) == []

    @pytest.mark.parametrize("key", CONVERTED)
    def test_digest_is_serial_parallel_and_warm_alike(self, key, toy_table,
                                                      tmp_path, monkeypatch):
        """(b) One payload, however the cases were executed: serially
        (the toy table's run), from its warm cache (simulating nothing)
        and cold on two workers."""
        digest = test_golden.canonical_digest
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(toy_table.cache_dir))
        calls = _count_network_runs(monkeypatch)
        digests = {"serial": digest(toy_table.runs[key].payload),
                   "warm": digest(_front_end(key)(**TOY[key]))}
        assert calls == [], f"{key}: the warm leg simulated"
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "2")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "b"))
        digests["two workers"] = digest(_front_end(key)(**TOY[key]))
        assert set(digests.values()) == {test_golden.load_golden()[key]}, \
            digests

    def test_only_common_and_runner_name_the_batch_runtime(self):
        """(c) An ``ast`` walk, as ``check_option_census.py`` does."""
        import repro.experiments

        runtime_names = {"ScenarioSpec", "BatchExecutor"}
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

    def test_front_ends_name_only_axes_and_listed_case_parameters(self):
        """(d) A driver states each parameter once: a front-end names its
        sweep axes and :data:`NAMED_CASE_PARAMETERS`, and passes the rest
        through ``**params`` to the case that holds the default."""
        named, without_case = {}, set()
        for key in EXPERIMENT_INDEX:
            case = _case_of(key)
            if case is None:
                without_case.add(key)
                continue
            front = inspect.signature(_front_end(key)).parameters
            own = inspect.signature(case).parameters
            assert any(p.kind is p.VAR_KEYWORD for p in front.values()), key
            named[key] = set(front) & set(own)
            if "duration" in named[key]:
                assert front["duration"].default != own["duration"].default
        assert without_case == {"fig05", "selftest"}
        named = {key: names for key, names in named.items() if names}
        assert named == {key: set(reasons) for key, reasons
                         in NAMED_CASE_PARAMETERS.items()}



# --------------------------------------------------------------------- #
# Seed census: which toy payloads a seed moves
# --------------------------------------------------------------------- #
#: Registry ids whose toy payload (:data:`TOY`) is the same at the toy's
#: own seed and at one other (0, or 1 where the toy runs at 0), each with
#: the reason nothing in it draws from the seed.
SEED_INERT = {
    "fig10": "one backlogged Cubic cross flow",
    "fig11": "DASH video cross traffic: a fixed bitrate ladder",
    "fig14": "the toy runs the paced CBR and backlogged NewReno sweeps "
             "only (the Poisson sweep draws from the seed)",
    "fig22": "one backlogged BBR cross flow",
    "fig24": "one backlogged NewReno cross flow",
    "fig26": "one backlogged Vivace cross flow",
    "parking_lot": "backlogged Cubic cross flows over drop-tail hops: no "
                   "AQM and no fault schedule to seed",
}


def _toy_seed(key):
    """The seed ``TOY[key]`` runs at: its own, else its case's default
    (fig05 forwards to fig04, whose cases default to 0).  A wrong answer
    here can only change which other seed the census compares, or make it
    read one seed twice, which reads as inert."""
    case = _case_of(key) or _front_end(key)
    seed = inspect.signature(case).parameters.get("seed")
    return TOY[key].get("seed", 0 if seed is None else seed.default)


def test_seed_census(toy_table):
    """A toy's own seed (the session table's payload) and one other seed
    (computed as the goldens are) give two payloads, except where
    :data:`SEED_INERT` says why not: an inert seed cannot pass unnoticed."""
    digests, inert = {}, set()
    for key in sorted(EXPERIMENT_INDEX):
        call = (EXPERIMENT_INDEX[key], id(TOY[key]))  # fig19 is fig18's
        if call not in digests:
            other = test_golden.run_under_golden_env(
                EXPERIMENT_INDEX[key],
                {**TOY[key], "seed": 1 if _toy_seed(key) == 0 else 0})
            digests[call] = {test_golden.canonical_digest(payload)
                             for payload in (toy_table.runs[key].payload,
                                             other)}
        if len(digests[call]) == 1:
            inert.add(key)
    assert inert == set(SEED_INERT)


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
        banned = {"ScenarioSpec", "BatchExecutor", "benchmark"}
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
