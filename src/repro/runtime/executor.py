"""Batch execution of scenario specs with memoisation.

The executor resolves each spec's result in three tiers: the on-disk cache,
then a process pool for the misses (``REPRO_BENCH_WORKERS`` workers,
default ``os.cpu_count()``), falling back to in-process serial execution
when only one worker is configured or the batch has a single miss.

Every miss is serialised exactly once, in the process that computed it
(:func:`_timed_execute`): those bytes are what the cache entry holds, and what
``pickle.loads`` of them yields is what the batch returns.  A batch
therefore produces bit-identical payloads whether it ran serially,
pooled, hardened, or from the cache — the pickle codec is the common
denominator, and structures that differ only in memoised object identity
(shared vs copied arrays) collapse to the same bytes — without paying for
a second ``dumps`` to store what was already serialised to be returned.

Hardened mode
-------------

Passing any of ``timeout``, ``max_retries``, or ``on_error="record"``
switches the executor onto a crash-isolated path: every miss runs in its
own dedicated process connected by a pipe, so a spec that raises, hangs,
or kills its interpreter cannot take the batch (or sibling specs) with
it.  Failures become structured :class:`SpecFailure` records — placed at
the spec's result position with ``on_error="record"``, or raised as one
:class:`SpecExecutionError` after the rest of the batch completes with
the default ``on_error="raise"``.  Failed specs are *never* written to
the result cache.  Retries back off with seeded full jitter: attempt
``n`` waits a uniform draw from ``[0, min(retry_backoff_max,
retry_backoff * 2**(n-1)))`` seconds, the draw keyed on
``(spec hash, attempt)`` so it is deterministic per spec and attempt —
concurrent retries decorrelate without making metrics irreproducible.
The child sends its result as the same single pickle, so hardened results
are bit-identical to pool and serial results regardless of worker width.

With ``journal_path`` set, every spec's terminal state is appended to a
:class:`~repro.runtime.journal.BatchJournal` the moment it resolves;
``resume=True`` keeps an existing journal, and — since successful results
were cached — a re-run only re-executes the failed or never-completed
specs.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import multiprocessing.connection
import os
import pickle
import random
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, \
    Tuple, Union

from .cache import MISS, ResultCache
from .journal import BatchJournal
from .metrics import metrics_record, write_metrics
from .spec import ScenarioSpec

#: Set in worker processes (and honoured by nested executors) so a driver
#: that itself fans out a batch cannot recursively spawn pools.
_WORKER_ENV = "REPRO_RUNTIME_WORKER"


def configured_workers() -> int:
    """Worker count from ``REPRO_BENCH_WORKERS``, default ``os.cpu_count()``."""
    if os.environ.get(_WORKER_ENV):
        return 1
    raw = os.environ.get("REPRO_BENCH_WORKERS", "")
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise ValueError(
                f"REPRO_BENCH_WORKERS must be an integer, got {raw!r}")
    return os.cpu_count() or 1


def execute_spec(spec: ScenarioSpec) -> Any:
    """Run one spec to completion (no caching) and return its result."""
    target = spec.resolve()
    return target(**spec.kwargs())


def _timed_execute(spec: ScenarioSpec) -> Tuple[float, int, bytes]:
    """Execute one spec: ``(driver wall seconds, pid, pickled result)``.

    This ``dumps`` is the one serialisation of a miss: its bytes are
    shipped, stored and loaded as they are.
    """
    begin = time.perf_counter()
    result = execute_spec(spec)
    return (time.perf_counter() - begin, os.getpid(),
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))


def _timed_execute_in_worker(spec: ScenarioSpec) -> Tuple[float, int, bytes]:
    """Pool entry point: mark the process as a worker, then execute."""
    os.environ[_WORKER_ENV] = "1"
    return _timed_execute(spec)


def _isolated_entry(conn, spec: ScenarioSpec) -> None:
    """Hardened-mode child entry: execute one spec, report over the pipe.

    The result is pickled *in the child* — the parent stores and fans out
    those exact bytes, so hardened results match pool results bit for bit.
    A raising spec (any ``BaseException``) reports its traceback instead;
    a child that dies outright simply never sends, which the parent
    classifies as a crash.
    """
    os.environ[_WORKER_ENV] = "1"
    begin = time.perf_counter()
    try:
        payload = ("ok", *_timed_execute(spec))
    except BaseException:
        payload = ("error", time.perf_counter() - begin, os.getpid(),
                   traceback.format_exc().strip())
    try:
        conn.send(payload)
    finally:
        conn.close()


@dataclass(frozen=True)
class SpecFailure:
    """Structured terminal failure of one spec under the hardened executor.

    Takes the place of the spec's result when ``on_error="record"``; never
    written to the result cache.

    Attributes:
        spec_hash: Content hash of the failed spec.
        label: Display label of the spec.
        fn: Dotted target path of the spec.
        outcome: ``"error"`` (the spec raised), ``"timeout"`` (deadline
            exceeded, worker terminated), or ``"crash"`` (worker died
            without reporting).
        attempts: Execution attempts consumed, including retries.
        error: Full traceback or diagnostic message of the last attempt.
        seconds: Wall time of the last attempt (the timeout for timeouts).
    """

    spec_hash: str
    label: str
    fn: str
    outcome: str
    attempts: int
    error: str
    seconds: float = 0.0

    @property
    def summary(self) -> str:
        """Last line of the error (the exception itself, for tracebacks)."""
        return self.error.strip().splitlines()[-1] if self.error else ""

    def __str__(self) -> str:
        return (f"{self.label} [{self.outcome} after {self.attempts} "
                f"attempt(s)]: {self.summary}")


class SpecExecutionError(RuntimeError):
    """Raised after a hardened batch when ``on_error="raise"``.

    Carries every :class:`SpecFailure` of the batch; the message shows the
    first one in full so the offending spec, outcome, attempt count, and
    traceback are readable without unpacking.
    """

    def __init__(self, failures: Sequence[SpecFailure]) -> None:
        self.failures = list(failures)
        first = self.failures[0]
        extra = (f" (+{len(self.failures) - 1} more failed spec(s))"
                 if len(self.failures) > 1 else "")
        super().__init__(
            f"spec {first.label!r} ({first.fn}) {first.outcome} after "
            f"{first.attempts} attempt(s){extra}:\n{first.error}")


@dataclass
class BatchStats:
    """Cache accounting for the most recent :meth:`BatchExecutor.run`.

    Attributes:
        hits: Spec positions served straight from the on-disk cache.
        misses: Spec positions that required a simulation.
        executed: Simulations actually run (misses minus in-batch
            duplicates, which are simulated once and fanned out).
        timings: One ``(label, seconds)`` pair per spec, in batch order;
            ``seconds`` is ``None`` for cache hits and the execution wall
            time otherwise (duplicates report the shared execution's time).
        failed: Spec positions that ended in a :class:`SpecFailure`
            (always 0 outside hardened mode).
        corrupt: Spec positions whose cached entry was corrupt (deleted
            and re-executed; a subset of ``misses``).
    """

    hits: int
    misses: int
    executed: int
    timings: List[Tuple[str, Optional[float]]]
    failed: int = 0
    corrupt: int = 0


class BatchExecutor:
    """Runs batches of :class:`ScenarioSpec` with caching and fan-out.

    Args:
        workers: Process-pool width; ``None`` reads the environment.
        cache: Result cache; ``None`` builds one from the environment.
            Pass ``ResultCache(enabled=False)`` to force cold runs.
        metrics_path: When set, every :meth:`run` appends one JSONL record
            per spec to this file (see :mod:`repro.runtime.metrics`).
        timeout: Per-spec wall-clock deadline in seconds; a spec still
            running at the deadline is terminated (hardened mode).
        max_retries: Extra attempts after a failed one — error, timeout,
            or crash alike (hardened mode).
        retry_backoff: Base of the exponential retry ceiling: attempt
            ``n`` waits a deterministic full-jitter draw from
            ``[0, min(retry_backoff_max, retry_backoff * 2**(n-1)))``
            seconds (see :meth:`retry_delay`).
        retry_backoff_max: Cap on the exponential ceiling, so deep retry
            chains cannot back off unboundedly.
        on_error: ``"raise"`` (default) raises :class:`SpecExecutionError`
            once the rest of the batch has completed; ``"record"`` places
            the :class:`SpecFailure` at the spec's result position.
        journal_path: Append every spec's terminal state to this JSONL
            journal (see :mod:`repro.runtime.journal`).
        resume: Keep an existing journal instead of truncating it; with
            the result cache enabled, previously-successful specs resolve
            as hits and only failed/incomplete ones re-execute.
    """

    def __init__(self, workers: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 metrics_path: Optional[str] = None, *,
                 timeout: Optional[float] = None, max_retries: int = 0,
                 retry_backoff: float = 0.25,
                 retry_backoff_max: float = 8.0, on_error: str = "raise",
                 journal_path: Union[str, os.PathLike, None] = None,
                 resume: bool = False) -> None:
        self.workers = configured_workers() if workers is None else max(1, workers)
        self.cache = ResultCache() if cache is None else cache
        self.metrics_path = metrics_path
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff < 0:
            raise ValueError(f"retry_backoff must be >= 0, "
                             f"got {retry_backoff}")
        if retry_backoff_max <= 0:
            raise ValueError(f"retry_backoff_max must be positive, "
                             f"got {retry_backoff_max}")
        if on_error not in ("raise", "record"):
            raise ValueError(f"on_error must be 'raise' or 'record', "
                             f"got {on_error!r}")
        self.timeout = timeout
        self.max_retries = int(max_retries)
        self.retry_backoff = retry_backoff
        self.retry_backoff_max = retry_backoff_max
        self.on_error = on_error
        self.journal_path = journal_path
        self.resume = resume
        self._journal: Optional[BatchJournal] = None
        #: Accounting for the most recent batch (see :class:`BatchStats`).
        self.last_stats: Optional[BatchStats] = None
        #: Metrics records for the most recent batch, in spec order
        #: (populated even when ``metrics_path`` is unset).
        self.last_metrics: List[dict] = []

    @property
    def hardened(self) -> bool:
        """Whether misses run crash-isolated (see the module docstring).

        False by default, keeping the legacy serial/pool path — and its
        bit-identical, allocation-lean behaviour — untouched.
        """
        return (self.timeout is not None or self.max_retries > 0
                or self.on_error == "record")

    def retry_delay(self, spec_hash: str, attempt: int) -> float:
        """Backoff before re-running ``spec_hash`` after attempt ``attempt``.

        Full jitter over a capped exponential ceiling: a uniform draw from
        ``[0, min(retry_backoff_max, retry_backoff * 2**(attempt-1)))``.
        The draw comes from a private RNG seeded on ``(spec_hash,
        attempt)``, so the same spec's same attempt always waits the same
        time — retries of a re-run batch are reproducible — while
        concurrent retries of *different* specs decorrelate instead of
        thundering back in lockstep.
        """
        ceiling = min(self.retry_backoff_max,
                      self.retry_backoff * (2 ** (attempt - 1)))
        return random.Random(f"{spec_hash}:{attempt}").random() * ceiling

    def _ensure_journal(self) -> Optional[BatchJournal]:
        if self.journal_path is not None and self._journal is None:
            self._journal = BatchJournal(self.journal_path,
                                         resume=self.resume)
        return self._journal

    def run(self, specs: Sequence[ScenarioSpec]) -> List[Any]:
        """Execute a batch; results come back in spec order.

        Identical specs within one batch are simulated once: the misses
        are deduplicated by spec hash and the shared result fanned back
        out to every position.  In hardened mode a position may resolve to
        a :class:`SpecFailure` (``on_error="record"``) or the batch may
        raise :class:`SpecExecutionError` after every spec has settled
        (``on_error="raise"``).
        """
        specs = list(specs)
        hashes = [spec.spec_hash() for spec in specs]
        results: List[Any] = [self.cache.get(h, fn=spec.fn)
                              for h, spec in zip(hashes, specs)]
        missed = [result is MISS for result in results]
        corrupt_hashes = self.cache.take_corrupt()
        journal = self._ensure_journal()
        if journal is not None:
            recorded = set()
            for index, spec in enumerate(specs):
                if not missed[index] and hashes[index] not in recorded:
                    recorded.add(hashes[index])
                    journal.record(spec_hash=hashes[index], label=spec.label,
                                   outcome="ok", attempts=0, seconds=None)

        unique: dict = {}
        for index, result in enumerate(results):
            if result is MISS and hashes[index] not in unique:
                unique[hashes[index]] = index
        seconds_by_hash: dict = {}
        pid_by_hash: dict = {}
        attempts_by_hash: dict = {}
        failure_by_hash: Dict[str, SpecFailure] = {}
        if unique:
            miss_specs = [specs[i] for i in unique.values()]
            if self.hardened:
                fresh = self._run_misses_hardened(miss_specs, list(unique),
                                                  journal)
            else:
                fresh = [(seconds, pid, pickled, 1) for seconds, pid, pickled
                         in self._run_misses(miss_specs)]
            result_by_hash: dict = {}
            for spec_hash, settled in zip(unique, fresh):
                if isinstance(settled, SpecFailure):
                    failure_by_hash[spec_hash] = settled
                    result_by_hash[spec_hash] = settled
                    seconds_by_hash[spec_hash] = settled.seconds
                    pid_by_hash[spec_hash] = None
                    attempts_by_hash[spec_hash] = settled.attempts
                    continue
                seconds, pid, pickled, attempts = settled
                seconds_by_hash[spec_hash] = seconds
                pid_by_hash[spec_hash] = pid
                attempts_by_hash[spec_hash] = attempts
                self.cache.put(spec_hash, pickled,
                               fn=specs[unique[spec_hash]].fn, pickled=True)
                result_by_hash[spec_hash] = pickle.loads(pickled)
                if journal is not None and not self.hardened:
                    # The hardened scheduler journals at reap time; the
                    # legacy path settles everything here.
                    journal.record(spec_hash=spec_hash,
                                   label=specs[unique[spec_hash]].label,
                                   outcome="ok", attempts=attempts,
                                   seconds=seconds)
            for index, result in enumerate(results):
                if result is MISS:
                    results[index] = result_by_hash[hashes[index]]
        self.last_stats = BatchStats(
            hits=missed.count(False),
            misses=missed.count(True),
            executed=len(unique),
            timings=[(spec.label,
                      seconds_by_hash[hashes[index]] if missed[index] else None)
                     for index, spec in enumerate(specs)],
            failed=sum(1 for result in results
                       if isinstance(result, SpecFailure)),
            corrupt=sum(1 for index in range(len(specs))
                        if missed[index] and hashes[index] in corrupt_hashes))
        self.last_metrics = [
            metrics_record(
                spec,
                cache=("corrupt" if hashes[index] in corrupt_hashes
                       else "miss") if missed[index] else "hit",
                seconds=seconds_by_hash[hashes[index]] if missed[index] else None,
                worker_pid=pid_by_hash[hashes[index]] if missed[index] else None,
                dedup=missed[index] and unique.get(hashes[index]) != index,
                outcome=failure_by_hash[hashes[index]].outcome
                if hashes[index] in failure_by_hash else "ok",
                attempts=attempts_by_hash.get(
                    hashes[index], 1 if missed[index] else 0))
            for index, spec in enumerate(specs)]
        if self.metrics_path:
            write_metrics(self.last_metrics, self.metrics_path)
        if failure_by_hash and self.on_error == "raise":
            raise SpecExecutionError(list(failure_by_hash.values()))
        return results

    def run_one(self, spec: ScenarioSpec) -> Any:
        """Single-spec convenience wrapper around :meth:`run`."""
        return self.run([spec])[0]

    def map(self, fn: Callable | str, param_sets: Iterable[dict],
            **shared: Any) -> List[Any]:
        """Run ``fn`` once per parameter set (plus shared kwargs)."""
        specs = [ScenarioSpec.make(fn, **{**shared, **params})
                 for params in param_sets]
        return self.run(specs)

    def _run_misses(
            self, specs: Sequence[ScenarioSpec]
    ) -> List[Tuple[float, int, bytes]]:
        """Execute specs: ``(wall seconds, pid, pickled result)`` per spec."""
        if self.workers <= 1 or len(specs) <= 1:
            return [_timed_execute(spec) for spec in specs]
        width = min(self.workers, len(specs))
        with concurrent.futures.ProcessPoolExecutor(max_workers=width) as pool:
            return list(pool.map(_timed_execute_in_worker, specs))

    def _run_misses_hardened(
            self, specs: Sequence[ScenarioSpec], hashes: Sequence[str],
            journal: Optional[BatchJournal]
    ) -> List[Union[Tuple[float, int, bytes, int], SpecFailure]]:
        """Crash-isolated execution: one dedicated process per attempt.

        Returns, per spec, either ``(seconds, pid, pickled result,
        attempts)`` — the child's bytes, untouched — or
        a terminal :class:`SpecFailure`.  A failed attempt (raise, timeout,
        worker death) is retried after a seeded full-jitter backoff
        (:meth:`retry_delay`) while attempts remain; sibling specs keep
        running throughout.  Terminal states
        are journalled the moment they settle, so an interrupted batch
        leaves a truthful journal behind.
        """
        ctx = multiprocessing.get_context()
        width = max(1, min(self.workers, len(specs)))
        settled_all: List[Any] = [None] * len(specs)
        #: (spec index, attempt number, not-before monotonic time)
        pending: List[Tuple[int, int, float]] = \
            [(index, 1, 0.0) for index in range(len(specs))]
        active: Dict[int, tuple] = {}
        while pending or active:
            now = time.monotonic()
            pending.sort(key=lambda entry: (entry[2], entry[0]))
            while pending and len(active) < width and pending[0][2] <= now:
                index, attempt, _ = pending.pop(0)
                parent, child = ctx.Pipe(duplex=False)
                process = ctx.Process(target=_isolated_entry,
                                      args=(child, specs[index]),
                                      daemon=True)
                process.start()
                child.close()
                deadline = None if self.timeout is None \
                    else time.monotonic() + self.timeout
                active[index] = (process, parent, deadline, attempt)
            if not active:
                # Every queued retry is still backing off.
                time.sleep(max(0.0, pending[0][2] - time.monotonic()) + 1e-3)
                continue
            multiprocessing.connection.wait(
                [conn for _, conn, _, _ in active.values()], timeout=0.05)
            for index, (process, conn, deadline, attempt) \
                    in list(active.items()):
                settled = None
                if conn.poll():
                    try:
                        message = conn.recv()
                    except EOFError:
                        message = None
                    process.join()
                    if message is None:
                        settled = ("crash", 0.0, None,
                                   f"worker pipe closed without a result "
                                   f"(exit code {process.exitcode})")
                    else:
                        status, seconds, pid, payload = message
                        settled = (status, seconds, pid, payload)
                elif not process.is_alive():
                    process.join()
                    if conn.poll():
                        # The result raced the exit; read it next sweep.
                        continue
                    settled = ("crash", 0.0, None,
                               f"worker died without reporting "
                               f"(exit code {process.exitcode})")
                elif deadline is not None and time.monotonic() >= deadline:
                    process.terminate()
                    process.join(5.0)
                    if process.is_alive():  # pragma: no cover - stuck child
                        process.kill()
                        process.join()
                    settled = ("timeout", float(self.timeout), None,
                               f"timed out after {self.timeout:g}s and was "
                               f"terminated")
                if settled is None:
                    continue
                conn.close()
                del active[index]
                status, seconds, pid, payload = settled
                if status == "ok":
                    settled_all[index] = (seconds, pid, payload, attempt)
                    if journal is not None:
                        journal.record(spec_hash=hashes[index],
                                       label=specs[index].label,
                                       outcome="ok", attempts=attempt,
                                       seconds=seconds)
                elif attempt <= self.max_retries:
                    delay = self.retry_delay(hashes[index], attempt)
                    pending.append((index, attempt + 1,
                                    time.monotonic() + delay))
                else:
                    failure = SpecFailure(
                        spec_hash=hashes[index], label=specs[index].label,
                        fn=specs[index].fn, outcome=status,
                        attempts=attempt, error=str(payload),
                        seconds=float(seconds or 0.0))
                    settled_all[index] = failure
                    if journal is not None:
                        journal.record(spec_hash=failure.spec_hash,
                                       label=failure.label,
                                       outcome=failure.outcome,
                                       attempts=failure.attempts,
                                       seconds=failure.seconds,
                                       error=failure.summary)
        return settled_all


def run_batch(specs: Sequence[ScenarioSpec],
              workers: Optional[int] = None,
              cache: Optional[ResultCache] = None) -> List[Any]:
    """Execute a batch of specs with a throwaway executor."""
    return BatchExecutor(workers=workers, cache=cache).run(specs)


def run_scenario(fn: Callable | str, **params: Any) -> Any:
    """Build one spec from ``fn``/``params`` and execute it (cached)."""
    return BatchExecutor().run_one(ScenarioSpec.make(fn, **params))
