"""Experiment drivers: registry completeness and scaled-down smoke runs.

Full-scale reproductions live in ``benchmarks/``; here each driver is run at
a heavily reduced duration just to validate its plumbing and result shape.
"""

import importlib

import pytest

from repro.experiments import (
    EXPERIMENT_INDEX,
    ExperimentResult,
    add_main_flow,
    make_network,
    make_scheme,
)
from repro.experiments import (
    fig01_motivation,
    fig06_elasticity_cdf,
    fig10_copa_drop,
    fig16_multiflow,
    fig23_copa_cbr,
    internet_paths,
    table1_classification,
)
from repro.experiments.accuracy_scenarios import CrossSpec, run_accuracy_scenario
from repro.simulator import mbps_to_bytes_per_sec

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
        for name in set(EXPERIMENT_INDEX.values()):
            module = importlib.import_module(name)
            assert hasattr(module, "run") or hasattr(module, "run_path")


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
        result.add_scheme("cubic", network.recorder)
        text = result.table()
        assert "cubic" in text and "tput" in text


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

    def test_fig09_payload_rows_carry_what_fct_analysis_reads(self):
        from repro.analysis import FctRecord, fct_by_size
        from repro.experiments import fig09_wan

        args = dict(duration=6.0, seed=3, **FAST)
        *_, generator = fig09_wan.run_single("cubic", **args)
        live = generator.completed_records()
        rows = fig09_wan.run_case("cubic", **args)["data"]["fct_records"]
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
        spec = CrossSpec(kind="poisson", rate_fraction=0.5, elastic_flows=0)
        scenario = run_accuracy_scenario("nimbus", spec, link_mbps=48,
                                         duration=20, **FAST)
        assert 0.0 <= scenario.report.accuracy <= 1.0
        assert scenario.mean_throughput_mbps > 0
