"""Hardened-executor tests: crash isolation, timeouts, re-runs.

Every failing spec here comes from :mod:`repro.experiments.selftest`,
whose failure modes (raise, sleep, hard exit, stall-on-first-run) are part
of its parameter space — so these tests drive the executor exactly the
way a campaign's ``--timeout`` and failure rows do.  A spec gets one
attempt per batch; the next run of the batch is what re-executes it.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle

import pytest

import repro.runtime.executor as executor_module

from repro.analysis.telemetry import load_metrics
from repro.runtime import (
    BatchExecutor,
    BatchJournal,
    ScenarioSpec,
    SpecExecutionError,
    SpecFailure,
)
from repro.runtime.cache import MISS, ResultCache
from repro.runtime.metrics import tally, validate_metrics_record

RUN = "repro.experiments.selftest:run"
SLEEPY = "repro.experiments.selftest:sleepy_run"
HARD_EXIT = "repro.experiments.selftest:hard_exit"


def _spec(**params):
    return ScenarioSpec.make(RUN, **params)


def _outcomes(executor):
    return [(r["cache"], r["outcome"], r["attempts"])
            for r in executor.last_metrics]


def _pids(executor):
    return [r["worker_pid"] for r in executor.last_metrics]


@pytest.fixture
def forked(monkeypatch):
    """Pids of every worker the executor forks, in fork order."""
    pids = []

    class LoggedWorker(executor_module._Worker):
        def __init__(self, ctx):
            super().__init__(ctx)
            pids.append(self.process.pid)

    monkeypatch.setattr(executor_module, "_Worker", LoggedWorker)
    return pids


class TestCrashIsolation:
    def test_raising_spec_recorded_siblings_complete(self):
        executor = BatchExecutor(workers=2, on_error="record")
        specs = [_spec(seed=1), _spec(seed=2, crash=1), _spec(seed=3)]
        results = executor.run(specs)
        assert results[0].data["n"] > 0
        assert results[2].data["n"] > 0
        failure = results[1]
        assert isinstance(failure, SpecFailure)
        assert failure.outcome == "error"
        assert "deliberate crash" in failure.error
        assert "RuntimeError" in failure.error  # full traceback
        assert failure.fn == RUN
        assert tally(executor.last_metrics)["failures"] == 1

    def test_default_on_error_raises_after_batch(self):
        executor = BatchExecutor(workers=2, timeout=60.0)
        specs = [_spec(seed=1), _spec(seed=2, crash=1), _spec(seed=3)]
        with pytest.raises(SpecExecutionError) as excinfo:
            executor.run(specs)
        assert "deliberate crash" in str(excinfo.value)
        assert len(excinfo.value.failures) == 1
        # The siblings still completed and were cached before the raise.
        assert tally(executor.last_metrics)["executed"] == 3
        cache = ResultCache()
        assert cache.get(specs[0].spec_hash(), fn=specs[0].fn) is not MISS
        assert cache.get(specs[1].spec_hash(), fn=specs[1].fn) is MISS

    def test_worker_death_is_a_crash_outcome(self):
        executor = BatchExecutor(workers=2, on_error="record")
        spec = ScenarioSpec.make(HARD_EXIT, seed=1, code=17)
        failure = executor.run([spec, _spec(seed=4)])[0]
        assert isinstance(failure, SpecFailure)
        assert failure.outcome == "crash"
        assert "exit code 17" in failure.error

    def test_failed_specs_never_cached(self):
        executor = BatchExecutor(workers=1, on_error="record")
        spec = _spec(seed=5, crash=1)
        executor.run([spec])
        assert ResultCache().get(spec.spec_hash(), fn=spec.fn) is MISS
        # A second run re-executes instead of hitting the cache.
        executor2 = BatchExecutor(workers=1, on_error="record")
        executor2.run([spec])
        assert _outcomes(executor2) == [("miss", "error", 1)]

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            BatchExecutor(on_error="ignore")


class TestTimeout:
    def test_hung_spec_terminated_and_recorded(self):
        executor = BatchExecutor(workers=2, timeout=0.4,
                                 on_error="record")
        specs = [_spec(seed=1, sleep=30.0), _spec(seed=2)]
        results = executor.run(specs)
        failure = results[0]
        assert isinstance(failure, SpecFailure)
        assert failure.outcome == "timeout"
        assert failure.seconds == pytest.approx(0.4)
        assert "terminated" in failure.error
        assert results[1].data["n"] > 0

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout"):
            BatchExecutor(timeout=0.0)


class TestBitIdentity:
    def test_hardened_serial_pool_and_legacy_agree(self):
        specs = [_spec(seed=seed) for seed in (1, 2, 3, 4)]
        cold = dict(cache=ResultCache(enabled=False))

        legacy = BatchExecutor(workers=1, **cold).run(specs)
        serial = BatchExecutor(workers=1, timeout=60.0, **cold).run(specs)
        pooled = BatchExecutor(workers=4, timeout=60.0, **cold).run(specs)
        # Non-hardened fan-out is the same worker path with failure
        # handling off, and a cache hit loads the bytes a worker sent.
        fanned = BatchExecutor(workers=4).run(specs)
        cached = BatchExecutor(workers=1).run(specs)

        dumps = [pickle.dumps(batch)
                 for batch in (legacy, serial, pooled, fanned, cached)]
        assert len(set(dumps)) == 1

    def test_child_pickles_once_and_its_bytes_are_the_cache_entry(
            self, tmp_path, payload_dumps):
        import hashlib

        cache = ResultCache(directory=tmp_path / "cache", enabled=True)
        specs = [_spec(seed=seed) for seed in (1, 2, 3)]
        cold = BatchExecutor(workers=2, timeout=60.0, cache=cache).run(specs)
        produced = payload_dumps()
        assert len(produced) == 3  # one dumps per miss, none in the parent
        assert os.getpid() not in {pid for pid, _ in produced}
        assert len({pid for pid, _ in produced}) <= 2  # workers, not misses
        stored = [hashlib.sha256(entry.read_bytes()).hexdigest()
                  for entry in (tmp_path / "cache").rglob("*.pkl")]
        assert sorted(stored) == sorted(sha for _, sha in produced)
        warm = BatchExecutor(workers=1, cache=cache).run(specs)
        assert len(payload_dumps()) == 3  # a hit pickles nothing
        assert [pickle.dumps(result) for result in cold] == \
            [pickle.dumps(result) for result in warm]

    def test_hardened_not_engaged_by_default(self):
        executor = BatchExecutor(workers=1)
        assert not executor.hardened
        assert BatchExecutor(workers=1, timeout=1.0).hardened
        assert BatchExecutor(workers=1, on_error="record").hardened


class TestWorkerReuse:
    """Workers persist across specs; only a hang or a death costs one."""

    def test_twelve_specs_share_two_workers(self, forked):
        executor = BatchExecutor(workers=2, timeout=60.0)
        executor.run([_spec(seed=seed) for seed in range(12)])
        assert len(forked) == 2
        assert set(_pids(executor)) <= set(forked)
        assert os.getpid() not in forked
        assert [r["attempts"] for r in executor.last_metrics] == [1] * 12

    def test_error_does_not_cost_the_worker(self, forked):
        executor = BatchExecutor(workers=1, on_error="record")
        executor.run([_spec(seed=1), _spec(seed=2, crash=1), _spec(seed=3)])
        assert [r["outcome"] for r in executor.last_metrics] == \
            ["ok", "error", "ok"]
        assert len(forked) == 1
        assert _pids(executor) == [forked[0], None, forked[0]]

    def test_crash_replaces_only_the_dead_worker(self, forked):
        """The sibling sleeps through the crash on its own pid; the spec
        behind the crash finds no idle worker and gets a fresh one."""
        executor = BatchExecutor(workers=2, on_error="record")
        executor.run([_spec(seed=1, sleep=1.0),
                      ScenarioSpec.make(HARD_EXIT, seed=2),
                      _spec(seed=3), _spec(seed=4)])
        assert _outcomes(executor) == [
            ("miss", "ok", 1), ("miss", "crash", 1),
            ("miss", "ok", 1), ("miss", "ok", 1)]
        sibling, dead, fresh = forked
        assert _pids(executor) == [sibling, None, fresh, fresh]
        assert len({sibling, dead, fresh}) == 3

    def test_timeout_replaces_the_hung_worker(self, forked, tmp_path):
        marker = str(tmp_path / "sleepy-marker")
        executor = BatchExecutor(workers=1, timeout=0.4, on_error="record")
        executor.run([_spec(seed=1),
                      ScenarioSpec.make(SLEEPY, marker=marker, sleep=30.0),
                      _spec(seed=3)])
        assert [r["outcome"] for r in executor.last_metrics] == \
            ["ok", "timeout", "ok"]
        hung, fresh = forked
        assert _pids(executor) == [hung, None, fresh]
        assert hung != fresh


class TestNoLeakedWorkers:
    """``run`` reaps every worker it forked, however it ends."""

    @pytest.mark.parametrize("specs, kwargs", [
        ([_spec(seed=1), _spec(seed=2)], dict()),
        ([_spec(seed=1), _spec(seed=2, crash=1)], dict()),
        ([_spec(seed=1), _spec(seed=2, sleep=30.0)], dict(timeout=0.4)),
        ([_spec(seed=1), ScenarioSpec.make(HARD_EXIT, seed=2)], dict()),
    ], ids=["ok", "error", "timeout", "crash"])
    def test_returning_or_raising(self, specs, kwargs):
        for on_error in ("record", "raise"):
            executor = BatchExecutor(workers=2, on_error=on_error,
                                     cache=ResultCache(enabled=False),
                                     **kwargs)
            try:
                executor.run(specs)
            except SpecExecutionError:
                assert on_error == "raise"
            assert multiprocessing.active_children() == []

    def test_interrupt_mid_batch(self):
        def interrupt(index, result, record):
            raise KeyboardInterrupt

        executor = BatchExecutor(workers=2, timeout=60.0,
                                 on_settle=interrupt)
        with pytest.raises(KeyboardInterrupt):
            executor.run([_spec(seed=1), _spec(seed=2, sleep=30.0),
                          _spec(seed=3)])
        assert multiprocessing.active_children() == []


class TestDeadlineAwareWait:
    """The scheduler sleeps until the next event instead of polling."""

    @pytest.fixture
    def waits(self, monkeypatch):
        """``(objects waited on, timeout)`` of every ``connection.wait``.

        ``poll`` and ``join`` wait on one object; the scheduler waits on a
        pipe and a sentinel per busy worker.
        """
        calls = []
        real_wait = multiprocessing.connection.wait

        def recording_wait(objects, timeout=None):
            calls.append((len(objects), timeout))
            return real_wait(objects, timeout)

        monkeypatch.setattr(multiprocessing.connection, "wait",
                            recording_wait)
        return calls

    def test_idle_batch_blocks_until_the_worker_reports(self, waits):
        """One wake-up per event; the old 50 ms poll woke ~10x here."""
        BatchExecutor(workers=1, on_error="record").run(
            [_spec(seed=1, sleep=0.5)])
        assert [timeout for count, timeout in waits if count == 2] == [None]


class TestMetricsV2:
    def test_records_validate_and_carry_outcomes(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        executor = BatchExecutor(workers=2, on_error="record",
                                 journal_path=str(path))
        executor.run([_spec(seed=1), _spec(seed=2, crash=1)])
        lines = load_metrics(str(path))  # validates every line
        assert len(lines) == 2
        by_outcome = {record["outcome"]: record for record in lines}
        assert by_outcome["ok"]["worker_pid"] is not None
        assert by_outcome["ok"]["error"] is None
        assert by_outcome["error"]["worker_pid"] is None
        assert by_outcome["error"]["attempts"] == 1
        assert "deliberate crash" in by_outcome["error"]["error"]
        assert sorted(lines, key=lambda r: r["label"]) == \
            sorted(executor.last_metrics, key=lambda r: r["label"])

    def test_interrupted_batch_keeps_the_settled_records(self, tmp_path):
        """A batch cut short after its first settle still leaves that
        spec's record on disk: records stream as specs settle, not when
        the batch returns."""
        path = tmp_path / "metrics.jsonl"
        specs = [_spec(seed=seed) for seed in range(3)]

        def interrupt(index, result, record):
            raise KeyboardInterrupt

        executor = BatchExecutor(workers=1, journal_path=str(path),
                                 on_settle=interrupt)
        with pytest.raises(KeyboardInterrupt):
            executor.run(specs)
        (record,) = load_metrics(str(path))
        assert record["spec_hash"] == specs[0].spec_hash()
        assert (record["cache"], record["outcome"]) == ("miss", "ok")

    def test_hits_report_ok_with_zero_attempts(self):
        spec = _spec(seed=9)
        BatchExecutor(workers=1).run([spec])
        executor = BatchExecutor(workers=1, on_error="record")
        executor.run([spec])
        assert _outcomes(executor) == [("hit", "ok", 0)]
        for record in executor.last_metrics:
            validate_metrics_record(record)


class TestJournalAndResume:
    """The journal reports; the cache decides what a re-run executes."""

    def test_journal_records_terminal_states(self, tmp_path):
        journal_path = tmp_path / "batch.jsonl"
        executor = BatchExecutor(workers=2, on_error="record",
                                 journal_path=journal_path)
        specs = [_spec(seed=1), _spec(seed=2, crash=1)]
        executor.run(specs)
        entries = {record["spec_hash"]: record
                   for record in load_metrics(str(journal_path))}
        ok = entries[specs[0].spec_hash()]
        bad = entries[specs[1].spec_hash()]
        assert ok["outcome"] == "ok" and ok["attempts"] == 1
        assert bad["outcome"] == "error"
        assert "deliberate crash" in bad["error"]

    def test_resume_skips_successes_retries_failures(self, tmp_path):
        """A plain re-run resumes: the success is a cache hit, the failure
        (never cached) executes again."""
        journal_path = tmp_path / "batch.jsonl"
        specs = [_spec(seed=1), _spec(seed=2, crash=1)]
        BatchExecutor(workers=2, on_error="record",
                      journal_path=journal_path).run(specs)

        rerun = BatchExecutor(workers=2, on_error="record",
                              journal_path=journal_path)
        rerun.run(specs)
        assert _outcomes(rerun) == [("hit", "ok", 0), ("miss", "error", 1)]
        # Latest-wins: the journal now holds both runs' lines, but the
        # per-spec view reflects the most recent attempt.
        journal = BatchJournal(journal_path)
        assert journal.outcome_of(specs[0].spec_hash()) == "ok"
        assert journal.outcome_of(specs[1].spec_hash()) == "error"
        raw_lines = journal_path.read_text().splitlines()
        assert len(raw_lines) == 4  # two per run, append-only

    def test_resume_reexecutes_timed_out_spec(self, tmp_path):
        """A timed-out spec is unfinished work, not a terminal verdict:
        the next run must run it again (where, the stall being first-run
        only, it now succeeds)."""
        journal_path = tmp_path / "batch.jsonl"
        marker = str(tmp_path / "sleepy-marker")
        spec = ScenarioSpec.make(SLEEPY, marker=marker, sleep=30.0)
        first = BatchExecutor(workers=1, timeout=0.4, on_error="record",
                              journal_path=journal_path)
        failure = first.run([spec])[0]
        assert isinstance(failure, SpecFailure)
        assert failure.outcome == "timeout"
        journal = BatchJournal(journal_path)
        assert journal.outcome_of(spec.spec_hash()) == "timeout"

        rerun = BatchExecutor(workers=1, timeout=0.4, on_error="record",
                              journal_path=journal_path)
        result = rerun.run([spec])[0]
        assert not isinstance(result, SpecFailure)
        assert result.data["slept"] is False  # genuinely re-executed
        assert _outcomes(rerun) == [("miss", "ok", 1)]
        assert BatchJournal(journal_path).outcome_of(spec.spec_hash()) == "ok"

    def test_journalled_ok_implies_a_cache_entry(self, tmp_path):
        """Interrupted right after the first reap: whatever the journal
        calls ``ok`` must already be loadable — bytes first, line second."""
        journal_path = tmp_path / "batch.jsonl"
        specs = [_spec(seed=seed) for seed in range(6)]
        seen = []

        def interrupt(index, result, record):
            seen.append(index)
            raise KeyboardInterrupt

        executor = BatchExecutor(workers=2, timeout=60.0,
                                 journal_path=journal_path,
                                 on_settle=interrupt)
        with pytest.raises(KeyboardInterrupt):
            executor.run(specs)
        assert len(seen) == 1
        journalled = load_metrics(str(journal_path))
        assert [entry["outcome"] for entry in journalled] == ["ok"]
        cache = ResultCache()
        by_hash = {spec.spec_hash(): spec for spec in specs}
        for entry in journalled:
            spec = by_hash[entry["spec_hash"]]
            assert cache.get(entry["spec_hash"], fn=spec.fn) is not MISS
        # Running again re-executes exactly the specs that never settled,
        # and appends to the journal.
        rerun = BatchExecutor(workers=2, timeout=60.0,
                              journal_path=journal_path)
        rerun.run(specs)
        assert sorted(r["cache"] for r in rerun.last_metrics) == \
            ["hit"] + ["miss"] * 5
        assert len(load_metrics(str(journal_path))) == 1 + 6

    @staticmethod
    def _open_on(path):
        """File descriptors of this process that point at ``path``."""
        fds = "/proc/self/fd"
        return [fd for fd in os.listdir(fds)
                if os.path.realpath(os.path.join(fds, fd)) == str(path)]

    @pytest.mark.parametrize("on_error", ["record", "raise"])
    def test_no_journal_handle_outlives_run(self, tmp_path, on_error):
        """``run`` closes the journal however it ends; the next batch
        reopens it to append, so nothing is truncated or lost."""
        journal_path = tmp_path / "batch.jsonl"
        executor = BatchExecutor(workers=2, on_error=on_error,
                                 journal_path=journal_path)
        specs = [_spec(seed=1), _spec(seed=2, crash=1)]
        if on_error == "raise":
            with pytest.raises(SpecExecutionError):
                executor.run(specs)
        else:
            executor.run(specs)
        assert len(journal_path.read_text().splitlines()) == 2
        assert self._open_on(journal_path) == []
        executor.run([_spec(seed=3)])  # same executor, same journal
        assert len(journal_path.read_text().splitlines()) == 3
        assert self._open_on(journal_path) == []

    def test_torn_trailing_line_tolerated_on_resume(self, tmp_path):
        journal_path = tmp_path / "batch.jsonl"
        executor = BatchExecutor(workers=1, on_error="record",
                                 journal_path=journal_path)
        spec = _spec(seed=1)
        executor.run([spec])
        with open(journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"spec_hash": "abc", "outco')  # torn write
        journal = BatchJournal(journal_path)
        assert journal.outcome_of(spec.spec_hash()) == "ok"
        assert journal.outcome_of("abc") is None


class TestDedupUnderFailure:
    def test_duplicate_failing_specs_share_one_execution(self):
        executor = BatchExecutor(workers=2, on_error="record")
        spec = _spec(seed=7, crash=1)
        results = executor.run([spec, spec])
        assert all(isinstance(result, SpecFailure) for result in results)
        assert results[0] is results[1]
        count = tally(executor.last_metrics)
        assert (count["executed"], count["failures"]) == (1, 2)
