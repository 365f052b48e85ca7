"""Batch execution of scenario specs with memoisation.

The executor resolves each spec's result from the on-disk cache first and
executes the misses one of two ways:

* **in-process**, one after the other, when forking would buy nothing or
  is impossible: a non-hardened executor with one worker or a single
  miss, and any batch opened *inside* a worker (a driver fanning out its
  own cases — daemonic workers cannot have children), which is part of
  the worker's spec and so runs without the cache (see below);
* **on isolated workers** otherwise: at most ``workers``
  (``REPRO_BENCH_WORKERS``, default ``os.cpu_count()``) forked processes,
  each on a duplex pipe running a ``recv spec -> execute -> send result``
  loop (:func:`_worker_loop`).  A worker that reports is handed the next
  pending spec; only a worker that hangs past the deadline or dies is
  killed and replaced.  A spec that raises, hangs, or kills its
  interpreter therefore cannot take the batch or its siblings with it,
  and a healthy batch pays for ``workers`` forks, not one per spec.

A result is stored by the batch it was asked of.  A batch opened while a
spec executes (:func:`_timed_execute`, on either path) is part of that
spec — a front-end's cases under ``runner``, a campaign cell's cases on a
worker — so its default cache is off: it neither reads nor writes
entries, and the outer spec's entry is the one entry of the result.  An
explicit ``cache=`` still wins.  A front-end called directly opens the
outermost batch, so its cases keep their own entries.

Every miss is serialised exactly once, in the process that computed it
(:func:`_timed_execute`): those bytes are what the cache entry holds, and
what ``pickle.loads`` of them yields is what the batch returns.  A batch
therefore produces bit-identical payloads whether it ran in-process, on
workers, or from the cache — the pickle codec is the common denominator,
and structures that differ only in memoised object identity (shared vs
copied arrays) collapse to the same bytes — without paying for a second
``dumps`` to store what was already serialised to be returned.

A spec *settles* the moment its terminal state is known: its bytes go to
the cache, then each of its positions' metrics record (see
:mod:`repro.runtime.metrics`) to the journal (``journal_path``; see
:class:`~repro.runtime.journal.BatchJournal`), then ``on_settle`` is told
— in that order, so a journalled ``ok`` always has a cache entry behind
it, a batch interrupted mid-run leaves a record of every position that
settled, and a consumer (the campaign runner streams ``results.jsonl``
from the hook) sees results as they finish, not when the batch does.
``run`` closes the journal's append handle however the batch ends.  What
a re-run executes is decided by the cache alone: a settled success is a
hit, and a failed or never-settled spec has no entry, so it runs again.

Failure handling
----------------

On the worker path a spec gets one attempt, which fails as one of
``"error"`` (the spec raised; the worker survives), ``"timeout"`` (still
running at ``timeout`` seconds; the worker is terminated) or ``"crash"``
(the worker died without reporting).  A failed spec becomes a structured
:class:`SpecFailure` — placed at the spec's result position with
``on_error="record"``, or raised as one :class:`SpecExecutionError` after
the rest of the batch has settled with the default ``on_error="raise"``.
Failed specs are *never* written to the result cache, so the next run of
the batch re-executes them; a spec is deterministic, so re-running it
within the batch could only raise again.  Setting ``timeout`` or
``on_error="record"`` makes the executor *hardened*: it then uses workers
even for a single spec on one worker, because in-process execution could
honour neither.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import pickle
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, \
    Union

from .cache import MISS, ResultCache
from .journal import BatchJournal
from .metrics import metrics_record
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


#: Specs executing in this process; a batch opened while one does is part
#: of it, so its default cache is off (see the module docstring).
_executing = 0


def _timed_execute(spec: ScenarioSpec) -> Tuple[float, int, bytes]:
    """Execute one spec: ``(driver wall seconds, pid, pickled result)``.

    This ``dumps`` is the one serialisation of a miss: its bytes are
    shipped, stored and loaded as they are.
    """
    global _executing
    begin = time.perf_counter()
    _executing += 1
    try:
        result = execute_spec(spec)
    finally:
        _executing -= 1
    return (time.perf_counter() - begin, os.getpid(),
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))


def _worker_loop(conn, parent_end) -> None:
    """Worker entry: execute the specs the parent sends until told to stop.

    Each result is pickled *here* — the parent stores and fans out those
    exact bytes, so worker results match in-process results bit for bit.
    A raising spec (any ``BaseException``) reports its traceback and the
    loop carries on; a worker that dies outright simply never sends, which
    the parent classifies as a crash.  ``None`` (or the parent vanishing)
    ends the loop.
    """
    # Forked with a copy of the parent's end: holding it open would hide
    # the parent's death from the ``recv`` below.
    parent_end.close()
    os.environ[_WORKER_ENV] = "1"
    while True:
        try:
            spec = conn.recv()
        except EOFError:
            spec = None
        if spec is None:
            return
        begin = time.perf_counter()
        try:
            message = ("ok", *_timed_execute(spec))
        except BaseException:
            message = ("error", time.perf_counter() - begin, os.getpid(),
                       traceback.format_exc().strip())
        conn.send(message)


class _Worker:
    """One forked worker and the parent's end of its pipe."""

    def __init__(self, ctx) -> None:
        self.conn, child_end = ctx.Pipe()
        self.process = ctx.Process(target=_worker_loop,
                                   args=(child_end, self.conn), daemon=True)
        self.process.start()
        child_end.close()

    def close(self, stop: bool) -> None:
        """Reap the process: asked to ``stop`` when it is idle in ``recv``,
        terminated when it is (or may be) mid-spec, killed if it lingers."""
        if stop:
            try:
                self.conn.send(None)
            except OSError:
                pass  # already dead; the join below reaps it
        else:
            self.process.terminate()
        self.conn.close()
        self.process.join(5.0)
        if self.process.is_alive():  # pragma: no cover - stuck child
            self.process.kill()
            self.process.join()


@dataclass(frozen=True)
class SpecFailure:
    """Structured terminal failure of one spec on the worker path.

    Takes the place of the spec's result when ``on_error="record"``; never
    written to the result cache.

    Attributes:
        spec_hash: Content hash of the failed spec.
        label: Display label of the spec.
        fn: Dotted target path of the spec.
        outcome: ``"error"`` (the spec raised), ``"timeout"`` (deadline
            exceeded, worker terminated), or ``"crash"`` (worker died
            without reporting).
        error: Full traceback or diagnostic message.
        seconds: Wall time of the execution (the timeout for timeouts).
    """

    spec_hash: str
    label: str
    fn: str
    outcome: str
    error: str
    seconds: float = 0.0

    @property
    def summary(self) -> str:
        """Last line of the error (the exception itself, for tracebacks)."""
        return self.error.strip().splitlines()[-1] if self.error else ""

    def __str__(self) -> str:
        return f"{self.label} [{self.outcome}]: {self.summary}"


class SpecExecutionError(RuntimeError):
    """Raised after a hardened batch when ``on_error="raise"``.

    Carries every :class:`SpecFailure` of the batch; the message shows the
    first one in full so the offending spec, outcome and traceback are
    readable without unpacking.
    """

    def __init__(self, failures: Sequence[SpecFailure]) -> None:
        self.failures = list(failures)
        first = self.failures[0]
        extra = (f" (+{len(self.failures) - 1} more failed spec(s))"
                 if len(self.failures) > 1 else "")
        super().__init__(
            f"spec {first.label!r} ({first.fn}) {first.outcome}{extra}:\n"
            f"{first.error}")


class BatchExecutor:
    """Runs batches of :class:`ScenarioSpec` with caching and fan-out.

    Args:
        workers: Most worker processes alive at once; ``None`` reads the
            environment.
        cache: Result cache; ``None`` builds one from the environment,
            disabled in a batch opened while a spec executes.  Pass
            ``ResultCache(enabled=False)`` to force cold runs.
        timeout: Per-spec wall-clock deadline in seconds; a spec still
            running at the deadline is terminated with its worker.
        on_error: ``"raise"`` (default) raises :class:`SpecExecutionError`
            once the rest of the batch has completed; ``"record"`` places
            the :class:`SpecFailure` at the spec's result position.
        journal_path: Append every position's metrics record to this JSONL
            file the moment it settles (see :mod:`repro.runtime.journal`);
            ``runner --metrics PATH`` is this option.
        on_settle: Called as ``on_settle(index, result, record)`` for
            every spec position the moment it settles — hits first, then
            misses in completion order — with the position's result (or
            :class:`SpecFailure`) and metrics record, after the result
            was cached and journalled.
    """

    def __init__(self, workers: Optional[int] = None,
                 cache: Optional[ResultCache] = None, *,
                 timeout: Optional[float] = None, on_error: str = "raise",
                 journal_path: Union[str, os.PathLike, None] = None,
                 on_settle: Optional[Callable[[int, Any, dict], None]] = None
                 ) -> None:
        self.workers = configured_workers() if workers is None else max(1, workers)
        if cache is None:
            cache = ResultCache(enabled=False) if _executing else ResultCache()
        self.cache = cache
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if on_error not in ("raise", "record"):
            raise ValueError(f"on_error must be 'raise' or 'record', "
                             f"got {on_error!r}")
        self.timeout = timeout
        self.on_error = on_error
        self.on_settle = on_settle
        self._journal = None if journal_path is None \
            else BatchJournal(journal_path)
        #: Metrics records for the most recent batch, in spec order
        #: (kept whether or not they are journalled).
        self.last_metrics: List[dict] = []

    @property
    def hardened(self) -> bool:
        """Whether a timeout or failure records were asked for.

        A hardened executor never executes in-process (outside a worker),
        where it could honour neither; see the module docstring.
        """
        return self.timeout is not None or self.on_error == "record"

    def run(self, specs: Sequence[ScenarioSpec]) -> List[Any]:
        """Execute a batch; results come back in spec order.

        Identical specs within one batch are simulated once: the misses
        are deduplicated by spec hash and the shared result fanned back
        out to every position.  A position may resolve to a
        :class:`SpecFailure` (``on_error="record"``) or the batch may
        raise :class:`SpecExecutionError` after every spec has settled
        (``on_error="raise"``).
        """
        try:
            return self._run(list(specs))
        finally:
            # The next batch's first ``record`` reopens it to append.
            if self._journal is not None:
                self._journal.close()

    def _run(self, specs: List[ScenarioSpec]) -> List[Any]:
        hashes = [spec.spec_hash() for spec in specs]
        results: List[Any] = [self.cache.get(h, fn=spec.fn)
                              for h, spec in zip(hashes, specs)]
        missed = [result is MISS for result in results]
        corrupt_hashes = self.cache.take_corrupt()
        journal = self._journal
        #: Every position of each distinct hash; the first one executes.
        positions: Dict[str, List[int]] = {}
        for index, spec_hash in enumerate(hashes):
            positions.setdefault(spec_hash, []).append(index)
        records: List[Any] = [None] * len(specs)
        failures: List[SpecFailure] = []

        def settle(spec_hash: str, status: str = "ok",
                   seconds: Optional[float] = None, pid: Optional[int] = None,
                   payload: Any = None) -> None:
            """Terminal state of one hash: cache, then per position its
            record to the journal and the position to ``on_settle``."""
            first = positions[spec_hash][0]
            spec = specs[first]
            failure = None if status == "ok" else SpecFailure(
                spec_hash=spec_hash, label=spec.label, fn=spec.fn,
                outcome=status, error=str(payload),
                seconds=seconds)
            if failure is not None:
                failures.append(failure)
                result, pid = failure, None
            elif missed[first]:
                self.cache.put(spec_hash, payload, spec.fn)
                result = pickle.loads(payload)
            else:
                result = results[first]
            state = "hit" if not missed[first] else \
                "corrupt" if spec_hash in corrupt_hashes else "miss"
            for index in positions[spec_hash]:
                results[index] = result
                records[index] = metrics_record(
                    specs[index], spec_hash=spec_hash, cache=state,
                    seconds=seconds, worker_pid=pid,
                    dedup=missed[index] and index != first, outcome=status,
                    error=failure.summary if failure else None)
                if journal is not None:
                    journal.record(records[index])
                if self.on_settle is not None:
                    self.on_settle(index, result, records[index])

        unique = [h for h, indices in positions.items() if missed[indices[0]]]
        for spec_hash, indices in positions.items():
            if not missed[indices[0]]:
                settle(spec_hash)
        fan_out = self.hardened or (self.workers > 1 and len(unique) > 1)
        if fan_out and not os.environ.get(_WORKER_ENV):
            self._run_on_workers(
                [specs[positions[h][0]] for h in unique], unique, settle)
        else:
            for spec_hash in unique:
                settle(spec_hash, "ok",
                       *_timed_execute(specs[positions[spec_hash][0]]))
        self.last_metrics = records
        if failures and self.on_error == "raise":
            raise SpecExecutionError(failures)
        return results

    def _run_on_workers(
            self, specs: Sequence[ScenarioSpec], hashes: Sequence[str],
            settle: Callable[[str, str, float, Optional[int], Any], None]
    ) -> None:
        """Execute ``specs`` on at most ``workers`` isolated workers.

        ``settle(spec hash, status, seconds, pid, payload)`` is called once
        per spec, the moment its terminal state is known: ``"ok"`` with the
        worker's bytes, untouched, or the failure's status and diagnostic.
        Specs are dispatched in batch order.  A worker is forked when a
        spec is due and none is idle, reused for as long as it keeps
        reporting, and replaced only after a timeout or its death; none
        outlives this call, however it ends.
        """
        ctx = multiprocessing.get_context()
        width = min(self.workers, len(specs))
        pending = deque(range(len(specs)))
        idle: List[_Worker] = []
        #: spec index -> (worker, deadline)
        busy: Dict[int, Tuple[_Worker, Optional[float]]] = {}
        try:
            while pending or busy:
                while pending and len(busy) < width:
                    index = pending.popleft()
                    worker = idle.pop() if idle else _Worker(ctx)
                    busy[index] = (worker, None if self.timeout is None
                                   else time.monotonic() + self.timeout)
                    worker.conn.send(specs[index])
                # Sleep until a worker reports or dies, or the nearest
                # deadline comes due.
                due = [deadline for _, deadline in busy.values()
                       if deadline is not None]
                multiprocessing.connection.wait(
                    [waitable for worker, _ in busy.values() for waitable
                     in (worker.conn, worker.process.sentinel)],
                    max(0.0, min(due) - time.monotonic()) if due else None)
                for index, (worker, deadline) in list(busy.items()):
                    if worker.conn.poll():
                        try:
                            status, seconds, pid, payload = worker.conn.recv()
                        except EOFError:
                            status = "crash"
                    elif not worker.process.is_alive():
                        status = "crash"  # died with its pipe held open
                    elif deadline is not None \
                            and time.monotonic() >= deadline:
                        status = "timeout"
                    else:
                        continue
                    del busy[index]
                    if status == "crash":
                        worker.close(stop=False)
                        seconds, pid, payload = 0.0, None, (
                            f"worker died without reporting "
                            f"(exit code {worker.process.exitcode})")
                    elif status == "timeout":
                        worker.close(stop=False)
                        seconds, pid, payload = float(self.timeout), None, (
                            f"timed out after {self.timeout:g}s and was "
                            f"terminated")
                    else:
                        idle.append(worker)
                    settle(hashes[index], status, seconds, pid, payload)
        finally:
            for worker in idle:
                worker.close(stop=True)
            for worker, _ in busy.values():
                worker.close(stop=False)
