"""The command-line experiment runner."""

from pathlib import Path

import pytest

import _toy_driver
from repro.experiments import EXPERIMENT_INDEX, runner


@pytest.fixture
def toy_index(monkeypatch):
    """Register the microscopic fake driver under the id ``toy``."""
    monkeypatch.setitem(EXPERIMENT_INDEX, "toy",
                        f"{_toy_driver.__name__}:run")
    return "toy"


def test_list_exits_cleanly(capsys):
    assert runner.main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig09" in out and "table1" in out


def test_list_describes_an_id_that_shares_a_module_by_its_function(capsys):
    assert runner.main(["--list"]) == 0
    lines = {line.split()[0]: line for line in
             capsys.readouterr().out.splitlines()}
    assert "Appendix A / Fig. 20" in lines["fig20"]
    # fig18 and fig19 are the module's ``run``: the module describes them.
    assert lines["fig18"].split(None, 1)[1] == lines["fig19"].split(None, 1)[1]
    assert "Appendix A / Fig. 20" not in lines["fig18"]


def test_fig20_runs_appendix_a_not_fig18(capsys):
    """The registry names the function: ``fig20`` used to resolve to
    ``internet_paths:run`` and print Fig. 18's table."""
    assert runner.main(["fig20", "--duration", "4", "--dt", "0.004"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("== fig20_inelastic_paths ==")
    assert "nimbus-delay" in out and "fig18" not in out


def test_unknown_experiment():
    assert runner.main(["figXX"]) == 2


def test_parse_overrides():
    assert runner._parse_overrides(["load=0.9", "seed=3"]) == {
        "load": 0.9, "seed": 3.0}
    with pytest.raises(ValueError):
        runner._parse_overrides(["oops"])
    with pytest.raises(ValueError):
        runner._parse_overrides(["seed=banana"])
    with pytest.raises(ValueError):
        runner._parse_overrides(["seed=1,2"])


def test_bad_override_exits_with_error(toy_index, capsys):
    assert runner.main(["toy", "--set", "oops"]) == 2
    assert "name=value" in capsys.readouterr().err
    assert runner.main(["toy", "--set", "seed=banana"]) == 2
    assert "numeric" in capsys.readouterr().err
    # A list of values is a grid: a campaign manifest's axes, not a run.
    assert runner.main(["toy", "--set", "seed=1,2"]) == 2
    assert "repro-campaign run" in capsys.readouterr().err


def test_single_run_via_runtime(toy_index, capsys):
    assert runner.main(["toy", "--set", "seed=4", "--duration", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "== toy ==" in out
    assert "mean:" in out and "n:" in out


def test_duration_dropped_for_drivers_without_duration(monkeypatch, capsys):
    monkeypatch.setitem(EXPERIMENT_INDEX, "toy2", "_toy_driver2:run")
    assert runner.main(["toy2", "--duration", "9.0"]) == 0
    assert "== toy ==" in capsys.readouterr().out


def test_sweep_unknown_experiment(capsys):
    """``sweep`` is not a mode any more: a grid is a campaign manifest."""
    assert runner.main(["sweep"]) == 2
    assert "unknown experiment 'sweep'" in capsys.readouterr().err


@pytest.mark.slow
def test_runs_a_small_experiment(capsys):
    code = runner.main(["fig23", "--dt", "0.004", "--duration", "15",
                        "--set", "seed=1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "fig23" in out


def test_profile_flag_reports_timings_and_cache_counts(toy_index, capsys):
    assert runner.main(["toy", "--set", "seed=11", "--duration", "0.5",
                        "--profile"]) == 0
    out = capsys.readouterr().out
    assert "--- profile ---" in out
    assert "0 cache hit(s), 1 miss(es), 1 executed" in out
    # Second identical invocation is served entirely from the cache.
    assert runner.main(["toy", "--set", "seed=11", "--duration", "0.5",
                        "--profile"]) == 0
    out = capsys.readouterr().out
    assert "cached" in out
    assert "1 cache hit(s), 0 miss(es), 0 executed" in out


def test_profile_and_metrics_summary_count_a_corrupt_entry_alike(
        toy_index, capsys, tmp_path):
    """One tally: a corrupt cache entry is re-executed and is neither a
    hit nor a miss, in ``--profile`` and in ``telemetry summary`` alike."""
    from repro.analysis.telemetry import main as telemetry_cli
    from repro.runtime import default_cache_dir

    args = ["toy", "--set", "seed=13", "--duration", "0.5", "--profile"]
    assert runner.main(args) == 0
    (entry,) = Path(default_cache_dir()).rglob("*.pkl")
    entry.write_bytes(b"\x80")  # truncated pickle
    capsys.readouterr()
    metrics = tmp_path / "metrics.jsonl"
    assert runner.main(args + ["--metrics", str(metrics)]) == 0
    out = capsys.readouterr().out
    assert ("0 cache hit(s), 0 miss(es), 1 executed, "
            "1 corrupt cache entry re-executed") in out
    assert telemetry_cli(["summary", "--kind", "metrics", str(metrics)]) == 0
    summary = capsys.readouterr().out.splitlines()
    for line in ("hits: 0", "misses: 0", "corrupt: 1", "executed: 1"):
        assert line in summary


def test_no_profile_by_default(toy_index, capsys):
    assert runner.main(["toy", "--set", "seed=12", "--duration", "0.5"]) == 0
    assert "--- profile ---" not in capsys.readouterr().out
