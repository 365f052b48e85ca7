"""The flight recorder: trace sinks, engine events, stats, audit, metrics."""

from __future__ import annotations

import gc
import json
import os
import pickle
import warnings

import pytest

import _toy_driver
from _list_trace_sink import ListTraceSink
from repro.analysis.telemetry import (
    load_metrics,
    load_trace,
    main as telemetry_cli,
    trace_summary,
)
from repro.cc import Cubic
from repro.core.nimbus import Nimbus
from repro.experiments import runner
from repro.experiments.parking_lot import run_case
from repro.runtime import (
    BatchExecutor,
    BatchJournal,
    LinkSpec,
    ScenarioSpec,
    make_multihop_network,
    metrics_record,
    tally,
    validate_metrics_record,
)
from repro.simulator import (
    AuditError,
    FiniteSource,
    Flow,
    JsonlTraceSink,
    mbps_to_bytes_per_sec,
    sink_from_env,
    validate_trace_record,
)


def _two_hop_network(dt=0.002, seed=0, buffer_ms=100.0):
    return make_multihop_network(
        (LinkSpec("hop1", 18.0, delay_ms=5.0, buffer_ms=buffer_ms),
         LinkSpec("hop2", 12.0, delay_ms=5.0, buffer_ms=buffer_ms)),
        dt=dt, seed=seed, monitor="hop2")


def _traced_two_hop_run(duration=5.0):
    network = _two_hop_network()
    sink = ListTraceSink()
    network.trace_sink = sink
    network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="main"))
    network.run(duration)
    return network, sink


# --------------------------------------------------------------------- #
# Schema validation
# --------------------------------------------------------------------- #
class TestTraceSchema:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown trace event kind"):
            validate_trace_record({"time": 0.0, "event": "teleport",
                                   "flow_id": 1, "flow": "f"})

    def test_missing_payload_field_rejected(self):
        with pytest.raises(ValueError, match="missing field"):
            validate_trace_record({"time": 0.0, "event": "ack",
                                   "flow_id": 1, "flow": "f", "bytes": 1})

    def test_envelope_types_enforced(self):
        good = {"time": 1.0, "event": "loss", "flow_id": 1, "flow": "f",
                "bytes": 10.0}
        validate_trace_record(good)
        with pytest.raises(ValueError, match="time"):
            validate_trace_record({**good, "time": -1.0})
        with pytest.raises(ValueError, match="flow_id"):
            validate_trace_record({**good, "flow_id": "one"})
        with pytest.raises(ValueError, match="numeric"):
            validate_trace_record({**good, "bytes": "ten"})


# --------------------------------------------------------------------- #
# The JSONL sink
# --------------------------------------------------------------------- #
def _fake(kind):
    """A schema-valid ``ack`` or ``loss`` record."""
    return {"time": 0.5, "event": kind, "flow_id": 1, "flow": "main",
            "bytes": 100.0, "queue_delay": 0.0, "rtt": 0.05}


class TestJsonlSink:
    def test_writes_one_valid_json_object_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(str(path))
        sink.emit(_fake("ack"))
        sink.emit(_fake("loss"))
        sink.flush()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            validate_trace_record(json.loads(line))

    def test_append_mode_accumulates(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        for _ in range(2):
            sink = JsonlTraceSink(str(path))
            sink.emit(_fake("loss"))
            sink.flush()
        assert len(path.read_text().splitlines()) == 2

    def test_an_environment_trace_file_is_closed_after_each_run(
            self, tmp_path, monkeypatch):
        """A sink built from ``REPRO_TRACE`` holds no handle between runs:
        the collector finds no open file, and a second run appends its
        records after the first run's."""
        path = tmp_path / "trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            network = _two_hop_network()
            network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="main"))
            network.run(0.2)
            first = len(path.read_text().splitlines())
            network.run(0.4)
            del network
            gc.collect()
        assert not [warning for warning in caught
                    if issubclass(warning.category, ResourceWarning)]
        times = [record["time"] for record in load_trace(str(path))]
        assert 0 < first < len(times)
        assert times == sorted(times) and times[-1] > 0.2

    def test_a_record_written_after_the_last_run_reaches_the_file(
            self, tmp_path, monkeypatch):
        """``add_flow`` on a network whose last run has ended emits
        ``flow_start`` after the run's flush: that record is written out
        and its handle closed when the network goes, not left for the
        collector to find open."""
        path = tmp_path / "trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            network = _two_hop_network()
            network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="main"))
            network.run(0.2)
            network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="late"))
            del network
            gc.collect()
        assert not [warning for warning in caught
                    if issubclass(warning.category, ResourceWarning)]
        assert [record["flow"] for record in load_trace(str(path))
                if record["event"] == "flow_start"] == ["main", "late"]

    def test_sink_from_env(self, tmp_path):
        assert sink_from_env({}) is None
        assert sink_from_env({"REPRO_TRACE": "  "}) is None
        path = tmp_path / "t.jsonl"
        sink = sink_from_env({"REPRO_TRACE": str(path)})
        sink.emit(_fake("loss"))
        sink.flush()
        assert [r["event"] for r in load_trace(str(path))] == ["loss"]


# --------------------------------------------------------------------- #
# Engine event emission
# --------------------------------------------------------------------- #
class TestEngineEvents:
    def test_multihop_run_emits_schema_valid_events(self):
        network, sink = _traced_two_hop_run()
        assert sink.records
        for record in sink.records:
            validate_trace_record(record)
        kinds = {r["event"] for r in sink.records}
        assert {"flow_start", "enqueue", "hop", "delivery", "ack"} <= kinds

    def test_hop_events_locate_the_second_link(self):
        _, sink = _traced_two_hop_run()
        hops = [r for r in sink.records if r["event"] == "hop"]
        assert hops
        assert all(r["link"] == "hop2" and r["hop"] == 1 for r in hops)
        enqueues = [r for r in sink.records if r["event"] == "enqueue"]
        assert all(r["link"] == "hop1" and r["hop"] == 0 for r in enqueues)

    def test_drops_and_losses_under_tiny_buffer(self):
        # A starved buffer forces drops (and loss feedback) quickly.
        network = _two_hop_network(buffer_ms=4.0)
        sink = ListTraceSink()
        network.trace_sink = sink
        network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="main"))
        network.run(8.0)
        kinds = {r["event"] for r in sink.records}
        assert "drop" in kinds and "loss" in kinds
        drops = [r for r in sink.records if r["event"] == "drop"]
        assert all(r["bytes"] > 0 for r in drops)

    def test_mode_change_emitted_for_nimbus(self, small_network):
        network, _link = small_network
        sink = ListTraceSink()
        network.trace_sink = sink
        mu = mbps_to_bytes_per_sec(24)
        network.add_flow(Flow(cc=Nimbus(mu=mu), prop_rtt=0.05,
                              name="nimbus"))
        network.run(10.0)
        changes = [r for r in sink.records if r["event"] == "mode_change"]
        assert changes
        assert changes[0]["from_mode"] is None
        assert changes[0]["mode"] in ("delay", "competitive")
        for before, after in zip(changes, changes[1:]):
            assert after["from_mode"] == before["mode"]

    def test_a_flow_stopped_from_a_callback_is_not_polled_for_its_mode(
            self, small_network):
        """A callback's ``stop`` leaves the flow on the roster until the
        next emission pass, with its controller already released."""
        network, _link = small_network
        sink = ListTraceSink()
        network.trace_sink = sink
        mu = mbps_to_bytes_per_sec(24)
        flows = [network.add_flow(Flow(cc=Nimbus(mu=mu), prop_rtt=0.05,
                                       name=f"nimbus{i}")) for i in range(2)]
        network.schedule_call(2.0, flows[0].stop)
        network.run(4.0)
        assert flows[0].finished and flows[0].cc is None
        assert network.roster == [flows[1].flow_id]
        changes = sink.of("mode_change")
        assert {r["flow"] for r in changes} == {"nimbus0", "nimbus1"}
        assert all(r["time"] < 2.0 for r in changes
                   if r["flow"] == "nimbus0")
        finish, = sink.of("flow_finish")
        assert finish["flow"] == "nimbus0"

    def test_flow_finish_carries_fct(self, small_network):
        network, _link = small_network
        sink = ListTraceSink()
        network.trace_sink = sink
        network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="short",
                              source=FiniteSource(200_000)))
        network.run(20.0)
        finishes = [r for r in sink.records if r["event"] == "flow_finish"]
        assert len(finishes) == 1
        assert finishes[0]["fct"] > 0

    def test_flow_start_names_the_path(self):
        _, sink = _traced_two_hop_run(duration=0.5)
        starts = [r for r in sink.records if r["event"] == "flow_start"]
        assert len(starts) == 1
        assert starts[0]["path"] == ["hop1", "hop2"]
        assert starts[0]["cc"] == "cubic"


# --------------------------------------------------------------------- #
# Engine stats and the conservation audit
# --------------------------------------------------------------------- #
class TestEngineStats:
    def test_event_counters_conserve(self):
        network, _ = _traced_two_hop_run()
        stats = network.engine_stats()
        assert stats["events_executed"] > 0
        assert stats["events_scheduled"] == \
            stats["events_executed"] + stats["events_pending"]
        assert stats["roster_peak"] >= stats["roster_size"] >= 1
        assert stats["ticks"] == pytest.approx(stats["now"] / network.dt,
                                               abs=1)

    def test_audit_passes_on_healthy_run(self):
        network, _ = _traced_two_hop_run()
        network.audit_conservation()  # must not raise

    def test_audit_detects_corrupted_counters(self):
        network, _ = _traced_two_hop_run(duration=1.0)
        network.link.total_served += 12345.0
        with pytest.raises(AuditError, match="conservation"):
            network.audit_conservation()

    def test_audit_env_runs_during_step(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "1")
        network = _two_hop_network()
        assert network._audit_every == 256
        network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05, name="main"))
        network.run(1.0)  # > 256 ticks at dt=2 ms: the audit fired


# --------------------------------------------------------------------- #
# Telemetry off == bit-identical results
# --------------------------------------------------------------------- #
class TestBitIdentity:
    def test_trace_does_not_perturb_results(self, tmp_path, monkeypatch):
        baseline = pickle.dumps(run_case(duration=2.0))
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "trace.jsonl"))
        traced = pickle.dumps(run_case(duration=2.0))
        assert traced == baseline
        assert load_trace(str(tmp_path / "trace.jsonl"))


# --------------------------------------------------------------------- #
# Runtime metrics
# --------------------------------------------------------------------- #
class TestMetricsRecords:
    def test_record_derives_ticks(self):
        spec = ScenarioSpec.make(_toy_driver.run, duration=1.0, dt=0.004)
        record = metrics_record(spec, spec_hash=spec.spec_hash(),
                                cache="miss", seconds=0.5, worker_pid=123)
        assert record["ticks"] == 250
        assert record["ticks_per_sec"] == pytest.approx(500.0)
        hit = metrics_record(spec, spec_hash=spec.spec_hash(), cache="hit")
        assert hit["seconds"] is None and hit["ticks_per_sec"] is None

    def test_validation_rejects_bad_records(self):
        spec = ScenarioSpec.make(_toy_driver.run, duration=1.0)
        record = metrics_record(spec, spec_hash=spec.spec_hash(),
                                cache="miss", seconds=0.5, worker_pid=123)
        validate_metrics_record(record)
        with pytest.raises(ValueError, match="cache"):
            validate_metrics_record({**record, "cache": "maybe"})
        with pytest.raises(ValueError, match="missing"):
            validate_metrics_record({k: v for k, v in record.items()
                                     if k != "spec_hash"})
        with pytest.raises(ValueError, match="unknown fields"):
            validate_metrics_record({**record, "surprise": 1})
        with pytest.raises(ValueError, match="hits"):
            validate_metrics_record({**record, "cache": "hit"})
        # ``error`` says why a failed spec failed, and only a failed one.
        with pytest.raises(ValueError, match="error"):
            validate_metrics_record({**record, "error": "boom"})
        with pytest.raises(ValueError, match="error"):
            validate_metrics_record({**record, "outcome": "crash"})
        validate_metrics_record({**record, "outcome": "crash",
                                 "error": "worker died"})


class TestExecutorMetrics:
    def test_batch_reports_miss_hit_and_dedup(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        spec = ScenarioSpec.make(_toy_driver.run, seed=7, duration=0.1)
        executor = BatchExecutor(workers=1, journal_path=str(path))
        executor.run([spec, spec])
        first, second = executor.last_metrics
        assert first["cache"] == "miss" and not first["dedup"]
        assert second["cache"] == "miss" and second["dedup"]
        assert first["seconds"] == second["seconds"] is not None
        assert first["worker_pid"] is not None

        executor.run([spec])
        (hit,) = executor.last_metrics
        assert hit["cache"] == "hit"
        assert hit["seconds"] is None and hit["worker_pid"] is None

        records = load_metrics(str(path))  # both runs appended
        assert [r["cache"] for r in records] == ["miss", "miss", "hit"]
        summary = tally(records)
        assert summary["executed"] == 1
        assert summary["deduped"] == 1
        assert summary["hits"] == 1


# --------------------------------------------------------------------- #
# Runner flags, analysis loaders, and the CLI
# --------------------------------------------------------------------- #
@pytest.fixture
def toy_index(monkeypatch):
    from repro.experiments import EXPERIMENT_INDEX
    monkeypatch.setitem(EXPERIMENT_INDEX, "toy",
                        f"{_toy_driver.__name__}:run")
    return "toy"


class TestRunnerFlags:
    def test_metrics_flag_writes_jsonl(self, tmp_path, toy_index):
        path = tmp_path / "metrics.jsonl"
        assert runner.main(["toy", "--metrics", str(path)]) == 0
        records = load_metrics(str(path))
        assert len(records) == 1
        assert records[0]["fn"].endswith(":run")

    def test_trace_flag_streams_events_and_restores_env(
            self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.jsonl"
        code = runner.main(["parking_lot", "--duration", "2",
                            "--trace", str(trace),
                            "--metrics", str(metrics)])
        assert code == 0
        assert "REPRO_TRACE" not in os.environ
        records = load_trace(str(trace))
        kinds = {r["event"] for r in records}
        assert {"flow_start", "enqueue", "delivery", "ack"} <= kinds
        for record in load_metrics(str(metrics)):
            assert record["cache"] == "miss"  # tracing forces a cold run

    def test_trace_retraces_over_warm_cache(self, tmp_path, monkeypatch):
        # Drivers run nested batches: if they read the cache, a second
        # traced invocation would serve every scenario from it, simulate
        # nothing, and silently write no trace at all.  A batch opened
        # while a spec executes bypasses the cache, so the retrace holds.
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert runner.main(["parking_lot", "--duration", "2"]) == 0
        trace = tmp_path / "warm.jsonl"
        assert runner.main(["parking_lot", "--duration", "2",
                            "--trace", str(trace)]) == 0
        assert {r["event"] for r in load_trace(str(trace))} >= {
            "flow_start", "delivery"}


class TestAnalysisTelemetry:
    def test_summaries(self):
        _, sink = _traced_two_hop_run(duration=2.0)
        summary = trace_summary(sink.records)
        assert summary["events"]["delivery"] > 0
        assert summary["flows"]["main"] == len(sink.records)
        assert set(summary["links"]) <= {"hop1", "hop2"}

    def test_cli_validate_and_summary(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(str(path))
        sink.emit(_fake("loss"))
        sink.flush()
        assert telemetry_cli(["validate", "--kind", "trace",
                              str(path)]) == 0
        assert "1 valid trace record" in capsys.readouterr().out
        assert telemetry_cli(["summary", "--kind", "trace", str(path)]) == 0
        assert "loss" in capsys.readouterr().out

    def test_cli_rejects_malformed_lines(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "ack"}\n')
        assert telemetry_cli(["validate", "--kind", "trace",
                              str(path)]) == 1
        err = capsys.readouterr().err
        assert "bad.jsonl:1" in err

    def test_cli_rejects_wrong_schema_kind(self, tmp_path, capsys):
        path = tmp_path / "metrics.jsonl"
        spec = ScenarioSpec.make(_toy_driver.run, duration=1.0)
        journal = BatchJournal(path)
        journal.record(
            metrics_record(spec, spec_hash=spec.spec_hash(), cache="hit"))
        journal.close()
        assert telemetry_cli(["validate", "--kind", "metrics",
                              str(path)]) == 0
        assert telemetry_cli(["validate", "--kind", "trace",
                              str(path)]) == 1
