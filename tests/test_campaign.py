"""Campaign runner end to end: caching granularity, streaming, diffing.

The centrepiece is :func:`test_driver_edit_reexecutes_only_that_drivers_
cells` — the acceptance demo for per-module cache keys: a two-driver
campaign runs cold, re-runs fully warm, and after an edit to one driver's
source only that driver's cells re-execute.
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

from repro.analysis.telemetry import load_metrics
from repro.runtime.cache import ResultCache
from repro.runtime.campaign import (
    CampaignRunner,
    _scalars_of,
    diff_summaries,
    main,
    render_diff,
)
from repro.runtime.depgraph import DependencyGraph
from repro.runtime.manifest import CampaignManifest

# ---------------------------------------------------------------------- #
# A two-driver toy package sharing one engine module
# ---------------------------------------------------------------------- #
_CAMPKG_SOURCES = {
    "__init__.py": "",
    "engine.py": ("def simulate(x, seed):\n"
                  "    return (x * 17 + seed) % 101\n"),
    "driver_a.py": ("from .engine import simulate\n"
                    "\n"
                    "def run(x=1, seed=0):\n"
                    "    return {'value': simulate(x, seed), 'driver': 'a'}\n"),
    "driver_b.py": ("from .engine import simulate\n"
                    "\n"
                    "def run(x=1, seed=0):\n"
                    "    return {'value': simulate(x, seed), 'driver': 'b'}\n"),
    "flaky.py": ("def run(x=1, seed=0):\n"
                 "    if x == 2:\n"
                 "        raise RuntimeError('boom')\n"
                 "    return {'value': x}\n"),
}

_MANIFEST = {
    "campaign": {"name": "toycamp", "seeds": [0]},
    "experiment": [
        {"id": "alpha", "driver": "campkg.driver_a:run",
         "axes": {"x": [1, 2]}},
        {"id": "beta", "driver": "campkg.driver_b:run",
         "axes": {"x": [1]}},
    ],
}

_CELLS = ("alpha[x=1,seed=0]", "alpha[x=2,seed=0]", "beta[x=1,seed=0]")


@pytest.fixture
def campkg(tmp_path, monkeypatch):
    root = tmp_path / "campkg"
    root.mkdir()
    for name, text in _CAMPKG_SOURCES.items():
        (root / name).write_text(text, encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    return root


def _runner(campkg, tmp_path, out_name, manifest=None):
    graph = DependencyGraph(packages={"campkg": campkg})
    cache = ResultCache(directory=tmp_path / "cache", enabled=True,
                        graph=graph)
    return CampaignRunner(
        CampaignManifest.from_mapping(manifest or _MANIFEST),
        out_dir=tmp_path / out_name, cache=cache, workers=1)


# ---------------------------------------------------------------------- #
# The acceptance demo: cold -> warm -> edit one driver
# ---------------------------------------------------------------------- #
def test_driver_edit_reexecutes_only_that_drivers_cells(campkg, tmp_path):
    cold = _runner(campkg, tmp_path, "run-cold").run()
    assert set(cold["cells"]) == set(_CELLS)
    assert cold["totals"]["ok"] == 3
    assert cold["totals"]["misses"] == 3 and cold["totals"]["hits"] == 0

    warm = _runner(campkg, tmp_path, "run-warm").run()
    assert warm["totals"]["hits"] == 3 and warm["totals"]["misses"] == 0

    with open(campkg / "driver_a.py", "a", encoding="utf-8") as handle:
        handle.write("\n# edited between runs\n")
    edited = _runner(campkg, tmp_path, "run-edited").run()
    states = {cell: row["cache"] for cell, row in edited["cells"].items()}
    assert states == {"alpha[x=1,seed=0]": "miss",
                      "alpha[x=2,seed=0]": "miss",
                      "beta[x=1,seed=0]": "hit"}
    # Identical parameters, identical code path: same results either way.
    for cell in _CELLS:
        assert edited["cells"][cell]["outcome"] == "ok"
        assert edited["cells"][cell]["spec_hash"] == \
            warm["cells"][cell]["spec_hash"]


def test_a_cold_smoke_campaign_leaves_one_entry_per_cell(tmp_path,
                                                         monkeypatch):
    """A result is stored by the batch it was asked of: each cell's
    front-end runs its cases in a batch of the cell's own, which writes
    no entries, so five cells leave five and their seven cases none."""
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    cache_dir = tmp_path / "empty-cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    manifest = CampaignManifest.load(pathlib.Path(__file__).resolve()
                                     .parent.parent / "benchmarks"
                                     / "campaigns" / "smoke.toml")
    summary = CampaignRunner(manifest, out_dir=tmp_path / "out",
                             workers=2).run()
    assert summary["totals"]["ok"] == summary["totals"]["misses"] == 5
    assert len(list(cache_dir.glob("mod-*/*.pkl"))) == 5


def test_engine_edit_invalidates_every_driver(campkg, tmp_path):
    _runner(campkg, tmp_path, "run-a").run()
    with open(campkg / "engine.py", "a", encoding="utf-8") as handle:
        handle.write("\n# engine touched\n")
    summary = _runner(campkg, tmp_path, "run-b").run()
    assert summary["totals"]["misses"] == 3
    assert summary["totals"]["hits"] == 0


# ---------------------------------------------------------------------- #
# Artefacts: results stream, summary, status
# ---------------------------------------------------------------------- #
def test_results_stream_and_summary_files(campkg, tmp_path):
    runner = _runner(campkg, tmp_path, "run-files")
    summary = runner.run()
    rows = [json.loads(line)
            for line in runner.results_path.read_text().splitlines()]
    assert [row["cell"] for row in rows] == list(_CELLS)
    for row in rows:
        assert row["campaign"] == "toycamp"
        assert row["outcome"] == "ok" and row["cache"] == "miss"
        assert "value" in row["scalars"]
        assert row["fn"].startswith("campkg.driver_")
    on_disk = json.loads(runner.summary_path.read_text())
    assert on_disk["totals"]["cells"] == 3
    assert on_disk["cells"].keys() == summary["cells"].keys()
    assert runner.journal_path.exists()


def test_status_pending_then_ok(campkg, tmp_path):
    runner = _runner(campkg, tmp_path, "run-status")
    before = runner.status()
    assert set(before["cells"].values()) == {"pending"}
    assert before["counts"] == {"pending": 3}
    runner.run()
    after = _runner(campkg, tmp_path, "run-status").status()
    assert set(after["cells"].values()) == {"ok"}
    assert after["counts"] == {"ok": 3}


def test_sim_seconds_counts_a_shared_simulation_once(campkg, tmp_path):
    """Two cells with one spec hash are one simulation: both rows carry
    its time, and ``totals.sim_seconds`` (``tally``'s ``total_seconds``)
    counts it once."""
    manifest = {
        "campaign": {"name": "twins"},
        "experiment": [
            {"id": "first", "driver": "campkg.driver_a:run",
             "axes": {"x": [1]}},
            {"id": "twin", "driver": "campkg.driver_a:run",
             "axes": {"x": [1]}},
        ],
    }
    summary = _runner(campkg, tmp_path, "run-twins", manifest).run()
    first, twin = summary["cells"]["first[x=1]"], summary["cells"]["twin[x=1]"]
    assert first["spec_hash"] == twin["spec_hash"]
    assert first["seconds"] == twin["seconds"] > 0
    totals = summary["totals"]
    assert (totals["cells"], totals["misses"], totals["hits"]) == (2, 2, 0)
    assert totals["sim_seconds"] == first["seconds"]


def test_failed_cells_are_recorded_not_raised(campkg, tmp_path):
    manifest = {
        "campaign": {"name": "flaky"},
        "experiment": [{"id": "fl", "driver": "campkg.flaky:run",
                        "axes": {"x": [1, 2]}}],
    }
    runner = _runner(campkg, tmp_path, "run-flaky", manifest)
    summary = runner.run()
    assert summary["totals"]["ok"] == 1
    assert summary["totals"]["failed"] == 1
    by_cell = summary["cells"]
    assert by_cell["fl[x=1]"]["outcome"] == "ok"
    assert by_cell["fl[x=2]"]["outcome"] == "error"
    rows = [json.loads(line)
            for line in runner.results_path.read_text().splitlines()]
    failed = next(r for r in rows if r["cell"] == "fl[x=2]")
    assert "boom" in failed["scalars"]["error"]
    # A re-run re-attempts the failure; the healthy cell stays a cache hit.
    rerun = _runner(campkg, tmp_path, "run-flaky2", manifest).run()
    assert rerun["cells"]["fl[x=1]"]["cache"] == "hit"
    assert rerun["cells"]["fl[x=2]"]["outcome"] == "error"


def test_journal_is_the_metrics_record_stream(campkg, tmp_path):
    """``journal.jsonl`` holds one schema-valid metrics record per cell —
    the failing one carrying its error — and a re-run appends to it."""
    manifest = {
        "campaign": {"name": "flaky"},
        "experiment": [{"id": "fl", "driver": "campkg.flaky:run",
                        "axes": {"x": [1, 2]}}],
    }
    runner = _runner(campkg, tmp_path, "run-journal", manifest)
    runner.run()
    records = load_metrics(str(runner.journal_path))  # validates each line
    by_label = {record["label"]: record for record in records}
    assert set(by_label) == {"fl[x=1]", "fl[x=2]"}
    assert by_label["fl[x=1]"]["error"] is None
    assert by_label["fl[x=2]"]["outcome"] == "error"
    assert "boom" in by_label["fl[x=2]"]["error"]
    runner.run()
    again = load_metrics(str(runner.journal_path))
    assert again[:2] == records
    assert [r["cache"] for r in again[2:]] == ["hit", "miss"]


# ---------------------------------------------------------------------- #
# One batch per campaign: streaming, order, re-runs
# ---------------------------------------------------------------------- #
_SELFTEST = "repro.experiments.selftest"


def _slow_cell_runner(tmp_path, slow_first):
    """Four quick cells and one that sleeps 1 s, on two workers."""
    quick = {"id": "quick", "driver": f"{_SELFTEST}:run",
             "axes": {"seed": [1, 2, 3, 4]}}
    slow = {"id": "slow", "driver": f"{_SELFTEST}:sleepy_run",
            "params": {"marker": str(tmp_path / "slow-marker"),
                       "sleep": 1.0}}
    manifest = {"campaign": {"name": "stream"},
                "experiment": [slow, quick] if slow_first else [quick, slow]}
    return CampaignRunner(CampaignManifest.from_mapping(manifest),
                          out_dir=tmp_path / "run-stream", workers=2)


def test_settled_prefix_is_on_disk_before_run_returns(tmp_path):
    runner = _slow_cell_runner(tmp_path, slow_first=False)
    seen = []  # (when, cells in results.jsonl) at every echoed row

    def echo(line):
        rows = runner.results_path.read_text().splitlines()
        seen.append((time.monotonic(),
                     [json.loads(row)["cell"] for row in rows]))

    runner.run(echo=echo)
    returned = time.monotonic()
    cells = [cell.cell_id for cell in runner.cells]
    # One row at a time, each on disk by the time it is echoed...
    assert [on_disk for _, on_disk in seen] == \
        [cells[:count] for count in range(1, 6)]
    # ...and the four quick rows were there while the slow cell slept.
    assert returned - seen[3][0] > 0.5


def test_results_keep_manifest_order_whatever_the_settle_order(tmp_path):
    runner = _slow_cell_runner(tmp_path, slow_first=True)
    summary = runner.run()
    assert summary["totals"]["ok"] == 5
    cells = [cell.cell_id for cell in runner.cells]
    hashes = [cell.spec.spec_hash() for cell in runner.cells]
    rows = [json.loads(line)
            for line in runner.results_path.read_text().splitlines()]
    assert [row["cell"] for row in rows] == cells
    assert list(summary["cells"]) == cells
    # The journal is in settle order: the slow first cell settled last.
    journalled = [json.loads(line)["spec_hash"] for line
                  in runner.journal_path.read_text().splitlines()]
    assert journalled[-1] == hashes[0]
    assert sorted(journalled) == sorted(hashes)


def test_resume_reexecutes_only_the_unsettled_cells(campkg, tmp_path):
    def interrupt_after_two(line):
        if line.startswith(_CELLS[1]):
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        _runner(campkg, tmp_path, "run-cut").run(echo=interrupt_after_two)
    cut = _runner(campkg, tmp_path, "run-cut")
    assert cut.status()["counts"] == {"ok": 2, "pending": 1}
    assert not cut.summary_path.exists()
    rerun = cut.run()
    assert {cell: row["cache"] for cell, row in rerun["cells"].items()} \
        == {_CELLS[0]: "hit", _CELLS[1]: "hit", _CELLS[2]: "miss"}
    assert rerun["totals"]["ok"] == 3
    # Every run rewrites the stream: it holds the full run only.
    rows = [json.loads(line)["cell"]
            for line in cut.results_path.read_text().splitlines()]
    assert rows == list(_CELLS)


# ---------------------------------------------------------------------- #
# One shape from case to row
# ---------------------------------------------------------------------- #
def test_case_and_front_end_rows_carry_throughput_delay_and_accuracy(
        tmp_path):
    """A row's ``scalars`` are the payload's ``summary`` fields plus the
    scalar entries of its ``extra``; ``accuracy`` is their
    ``mode_accuracy``; a front-end's row keys every field by scheme."""
    toy = {"duration": 12.0, "dt": 0.004}
    experiments = "repro.experiments."
    manifest = {
        "campaign": {"name": "shapes", "seeds": [1]},
        "experiment": [
            {"id": "wan", "driver": experiments + "fig09_wan:run_case",
             "params": {"scheme": "nimbus", "duration": 4.0, "dt": 0.004}},
            {"id": "mix",
             "driver": experiments + "accuracy_scenarios:run_case",
             "params": toy},
            {"id": "row",
             "driver": experiments + "table1_classification:classify",
             "params": {"traffic": "constant-stream", **toy}},
            {"id": "eta",
             "driver": experiments + "fig12_eta_tracking:run_case",
             "params": {"truth_window": 2.0, **toy}},
            {"id": "flap", "driver": "link_flap",
             "params": {"schemes": ["nimbus", "cubic"], "period": 2.0,
                        "phase_duration": 2.0, "duration": 4.0,
                        "dt": 0.004}},
        ],
    }
    runner = CampaignRunner(CampaignManifest.from_mapping(manifest),
                            out_dir=tmp_path / "run-shapes", workers=1)
    summary = runner.run()
    assert summary["totals"]["ok"] == 5
    rows = {row["experiment"]: row for row in map(
        json.loads, runner.results_path.read_text().splitlines())}
    for row in rows.values():
        assert {"mean_throughput_mbps", "mean_delay_ms"} <= \
            set(row["scalars"])
    assert isinstance(rows["wan"]["scalars"]["queue.mean"], float)
    for case in ("mix", "row", "eta"):
        assert 0.0 <= rows[case]["accuracy"] \
            == rows[case]["scalars"]["mode_accuracy"] <= 1.0
    flap = rows["flap"]["scalars"]
    assert set(flap["mean_throughput_mbps"]) == {"nimbus", "cubic"}
    # Cubic reports no mode: the front-end's accuracy is Nimbus's.
    assert rows["flap"]["accuracy"] == flap["mode_accuracy"]["nimbus"]


@pytest.mark.parametrize("result", [None, 7, [1.0, 2.0]])
def test_a_result_of_neither_shape_has_no_scalars(result):
    """A ``module:fn`` driver may return anything; the row is still
    written."""
    assert _scalars_of(result) == {}


# ---------------------------------------------------------------------- #
# Summary diffing
# ---------------------------------------------------------------------- #
def _summary_with(cells):
    return {"campaign": "x", "cells": cells,
            "totals": {"wall_seconds": 1.0}}


def test_diff_flags_regressions_and_accuracy_shifts():
    old = _summary_with({
        "a": {"outcome": "ok", "accuracy": 0.9},
        "b": {"outcome": "ok", "accuracy": 0.5},
        "gone": {"outcome": "ok", "accuracy": None},
    })
    new = _summary_with({
        "a": {"outcome": "error", "accuracy": None},
        "b": {"outcome": "ok", "accuracy": 0.7},
        "fresh": {"outcome": "ok", "accuracy": 1.0},
    })
    diff = diff_summaries(old, new)
    assert diff["added"] == ["fresh"] and diff["removed"] == ["gone"]
    assert diff["outcome_changes"] == {"a": ("ok", "error")}
    assert diff["regressed"] == ["a"]
    assert diff["accuracy_deltas"] == {"b": (0.5, 0.7)}
    rendered = render_diff(diff)
    assert "outcome: a: ok -> error" in rendered
    assert "1 cell(s) regressed" in rendered


def test_diff_of_identical_summaries_is_clean():
    summary = _summary_with({"a": {"outcome": "ok", "accuracy": 0.9}})
    diff = diff_summaries(summary, summary)
    assert not diff["regressed"] and not diff["outcome_changes"]
    assert render_diff(diff) == "no cell-level differences"


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
_CLI_TOML = """
[campaign]
name = "clitoy"

[[experiment]]
id = "toy"
driver = "_toy_driver:run"

[experiment.params]
duration = 0.05

[experiment.axes]
seed = [0, 1]
"""


@pytest.fixture
def cli_manifest(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))
    path = tmp_path / "clitoy.toml"
    path.write_text(_CLI_TOML, encoding="utf-8")
    return path


def test_cli_dry_run(cli_manifest, capsys):
    assert main(["dry-run", str(cli_manifest)]) == 0
    out = capsys.readouterr().out
    assert "toy[seed=0]" in out and "2 cell(s)" in out


def test_cli_run_twice_then_diff(cli_manifest, tmp_path, capsys):
    out_a, out_b = str(tmp_path / "cli-a"), str(tmp_path / "cli-b")
    assert main(["run", str(cli_manifest), "--out", out_a]) == 0
    assert main(["run", str(cli_manifest), "--out", out_b]) == 0
    capsys.readouterr()
    warm = json.loads((tmp_path / "cli-b" / "summary.json").read_text())
    assert warm["totals"]["hits"] == 2 and warm["totals"]["misses"] == 0
    assert main(["diff", f"{out_a}/summary.json",
                 f"{out_b}/summary.json"]) == 0
    assert "no cell-level differences" in capsys.readouterr().out


def test_cli_status(cli_manifest, tmp_path, capsys):
    out = str(tmp_path / "cli-status")
    assert main(["run", str(cli_manifest), "--out", out]) == 0
    capsys.readouterr()
    assert main(["status", str(cli_manifest), "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "campaign clitoy: 2 ok" in printed


def test_cli_manifest_error_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.toml"
    assert main(["run", str(missing)]) == 2
    assert "cannot read manifest" in capsys.readouterr().err
