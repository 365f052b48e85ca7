"""Per-spec runtime metrics for batch execution: the one per-spec record.

Every :meth:`~repro.runtime.executor.BatchExecutor.run` builds one record
per spec position describing how that spec was resolved: served from the
on-disk cache, simulated fresh, fanned out from an in-batch duplicate, or
failed.  The same record is the executor's journal line (streamed as the
spec settles; see :mod:`repro.runtime.journal`), what ``runner --metrics``
writes, and what a campaign row copies its fields from.  The records are
plain dicts, one JSON object per line, so any log shipper (or
:mod:`repro.analysis.telemetry`) can consume them without a schema
registry.  :func:`tally` is the one count of a batch's records.

Record schema (``schema_version`` = :data:`METRICS_SCHEMA_VERSION`):

``schema_version``
    Integer schema tag for forward compatibility.
``spec_hash``
    The spec's content hash (cache key core).
``label`` / ``fn``
    Display label and dotted target path of the spec.
``cache``
    ``"hit"`` (served from the on-disk cache), ``"miss"`` (simulated), or
    ``"corrupt"`` (a cached entry existed but could not be loaded — it was
    deleted and the spec simulated fresh, so ``"corrupt"`` otherwise
    behaves like ``"miss"``).
``dedup``
    True when this position was a miss but shared another identical
    miss's execution instead of running its own simulation.
``seconds``
    Execution wall time; ``None`` for cache hits (duplicates report the
    shared execution's time).
``worker_pid``
    PID of the process that ran the simulation; ``None`` for cache hits.
``ticks``
    ``round(duration / dt)`` when both parameters are present on the
    spec, else ``None`` — the tick count the driver will simulate.
``ticks_per_sec``
    ``ticks / seconds`` when both are known, else ``None``.
``outcome``
    How the spec ended: ``"ok"``, or — under the hardened executor — one
    of ``"error"`` (the spec raised), ``"timeout"`` (exceeded the per-spec
    deadline and was terminated), ``"crash"`` (the worker process died
    without reporting).  Failures are never cached, so a failed spec is
    always ``cache="miss"``.
``attempts``
    ``0`` for cache hits and ``1`` otherwise: a spec gets one execution
    per batch.
``error``
    ``None`` when ``outcome`` is ``"ok"``; otherwise the last line of the
    failure's diagnostic (the exception, for a raising spec).

Schema history: version 2 added ``outcome``/``attempts`` (records without
them no longer validate); version 3 added the ``"corrupt"`` cache state
(corrupt on-disk entries are deleted and re-executed instead of silently
masquerading as plain misses); version 4 added ``error``, when the record
became the journal line too.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from .spec import ScenarioSpec

#: Version tag stamped into every record.
METRICS_SCHEMA_VERSION = 4

#: Fields every record must carry (beyond these, extras are rejected).
_FIELDS = ("schema_version", "spec_hash", "label", "fn", "cache", "dedup",
           "seconds", "worker_pid", "ticks", "ticks_per_sec", "outcome",
           "attempts", "error")

_CACHE_STATES = ("hit", "miss", "corrupt")

#: Terminal states a spec execution can reach.
OUTCOMES = ("ok", "error", "timeout", "crash")


def metrics_record(spec: ScenarioSpec, *, spec_hash: str, cache: str,
                   seconds: Optional[float] = None,
                   worker_pid: Optional[int] = None,
                   dedup: bool = False, outcome: str = "ok",
                   error: Optional[str] = None) -> dict:
    """Build one schema-conformant record for ``spec``.

    ``spec_hash`` is the spec's content hash, which every caller already
    holds (hashing a spec canonicalises all of its parameters).
    """
    params = spec.kwargs()
    ticks: Optional[int] = None
    duration = params.get("duration")
    dt = params.get("dt")
    if isinstance(duration, (int, float)) and isinstance(dt, (int, float)) \
            and dt > 0:
        ticks = int(round(duration / dt))
    ticks_per_sec: Optional[float] = None
    if ticks is not None and seconds:
        ticks_per_sec = ticks / seconds
    record = {
        "schema_version": METRICS_SCHEMA_VERSION,
        "spec_hash": spec_hash,
        "label": spec.label,
        "fn": spec.fn,
        "cache": cache,
        "dedup": bool(dedup),
        "seconds": seconds,
        "worker_pid": worker_pid,
        "ticks": ticks,
        "ticks_per_sec": ticks_per_sec,
        "outcome": outcome,
        "attempts": 0 if cache == "hit" else 1,
        "error": error,
    }
    validate_metrics_record(record)
    return record


def validate_metrics_record(record: dict) -> None:
    """Raise ``ValueError`` unless ``record`` matches the documented schema."""
    if not isinstance(record, dict):
        raise ValueError(f"metrics record must be a dict, got "
                         f"{type(record).__name__}")
    missing = [name for name in _FIELDS if name not in record]
    if missing:
        raise ValueError(f"metrics record missing fields {missing}")
    extras = [name for name in record if name not in _FIELDS]
    if extras:
        raise ValueError(f"metrics record has unknown fields {extras}")
    if record["schema_version"] != METRICS_SCHEMA_VERSION:
        raise ValueError(
            f"metrics schema_version must be {METRICS_SCHEMA_VERSION}, "
            f"got {record['schema_version']!r}")
    if record["cache"] not in _CACHE_STATES:
        raise ValueError(f"cache must be one of {_CACHE_STATES}, "
                         f"got {record['cache']!r}")
    for name in ("spec_hash", "label", "fn"):
        if not isinstance(record[name], str):
            raise ValueError(f"{name} must be a string, "
                             f"got {record[name]!r}")
    if not isinstance(record["dedup"], bool):
        raise ValueError(f"dedup must be a bool, got {record['dedup']!r}")
    seconds = record["seconds"]
    if seconds is not None and not (isinstance(seconds, (int, float))
                                    and not isinstance(seconds, bool)
                                    and seconds >= 0):
        raise ValueError(f"seconds must be None or >= 0, got {seconds!r}")
    if record["cache"] == "hit" and seconds is not None:
        raise ValueError("cache hits must report seconds=None")
    pid = record["worker_pid"]
    if pid is not None and not (isinstance(pid, int)
                                and not isinstance(pid, bool) and pid > 0):
        raise ValueError(f"worker_pid must be None or a positive int, "
                         f"got {pid!r}")
    ticks = record["ticks"]
    if ticks is not None and not (isinstance(ticks, int)
                                  and not isinstance(ticks, bool)
                                  and ticks >= 0):
        raise ValueError(f"ticks must be None or a non-negative int, "
                         f"got {ticks!r}")
    outcome = record["outcome"]
    if outcome not in OUTCOMES:
        raise ValueError(f"outcome must be one of {OUTCOMES}, "
                         f"got {outcome!r}")
    attempts = record["attempts"]
    if not (isinstance(attempts, int) and not isinstance(attempts, bool)
            and attempts >= 0):
        raise ValueError(f"attempts must be a non-negative int, "
                         f"got {attempts!r}")
    if record["cache"] == "hit" and (outcome != "ok" or attempts != 0):
        raise ValueError("cache hits must report outcome='ok' and "
                         "attempts=0 (failed specs are never cached)")
    error = record["error"]
    if (error is not None) if outcome == "ok" else not isinstance(error, str):
        raise ValueError(f"error must be None when outcome is 'ok' and a "
                         f"string otherwise, got {error!r} for {outcome!r}")


def tally(records: Iterable[dict]) -> Dict[str, Optional[float]]:
    """The one count of a batch: cache accounting and execution rates.

    ``hits`` / ``misses`` / ``corrupt`` are the schema's three disjoint
    cache states and sum to ``specs``; ``executed`` is the simulations
    actually run (misses and corrupt entries, minus in-batch duplicates).
    """
    records = list(records)
    executed = [r for r in records if r["cache"] != "hit" and not r["dedup"]]
    seconds = [r["seconds"] for r in executed if r["seconds"] is not None]
    rates = [r["ticks_per_sec"] for r in executed
             if r["ticks_per_sec"] is not None]
    workers = {r["worker_pid"] for r in executed
               if r["worker_pid"] is not None}
    return {
        "specs": len(records),
        "hits": sum(r["cache"] == "hit" for r in records),
        "misses": sum(r["cache"] == "miss" for r in records),
        "corrupt": sum(r["cache"] == "corrupt" for r in records),
        "executed": len(executed),
        "deduped": sum(r["dedup"] for r in records),
        "failures": sum(r["outcome"] != "ok" for r in records),
        "workers": len(workers),
        "total_seconds": sum(seconds) if seconds else 0.0,
        "mean_ticks_per_sec": (sum(rates) / len(rates)) if rates else None,
    }
