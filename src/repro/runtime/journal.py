"""Batch journal: the metrics records of a batch, streamed as specs settle.

A :class:`BatchJournal` is an append-only JSONL file holding one
:func:`~repro.runtime.metrics.metrics_record` per settled spec position,
flushed the moment the position settles, so a batch killed mid-run
(crash, ^C, OOM) leaves a truthful record of what finished.  Its lines are
metrics records and nothing else: ``analysis.telemetry validate --kind
metrics`` checks them and :func:`~repro.runtime.metrics.tally` counts them.

An ``ok`` line promises a loadable result: the executor caches a spec's
bytes *before* journalling it, so a batch killed between the two re-runs
one spec instead of trusting a line with nothing behind it.  Nothing is
ever truncated: a re-run appends, and a spec appearing several times keeps
its latest line.  The journal decides nothing about what re-runs — the
cache does (failures are never cached, so they miss) — it only reports.
A campaign (:mod:`repro.runtime.campaign`) journals into
``<out>/journal.jsonl``; ``repro-campaign status`` reads each cell's latest
outcome through :meth:`BatchJournal.outcome_of`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Dict, Optional, Union


class BatchJournal:
    """Append-only metrics-record stream of one batch.

    Args:
        path: JSONL file to append to (parent directories are created).
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = Path(path)
        self._handle: Optional[IO[str]] = None
        #: Latest record per spec hash, loaded on first :meth:`outcome_of`.
        self._latest: Optional[Dict[str, dict]] = None

    def _load(self) -> Dict[str, dict]:
        latest: Dict[str, dict] = {}
        if not self.path.exists():
            return latest
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    # A run killed mid-write can leave one torn final line;
                    # everything before it is still trustworthy.
                    continue
                if isinstance(record, dict) and "spec_hash" in record:
                    latest[record["spec_hash"]] = record
        return latest

    def outcome_of(self, spec_hash: str) -> Optional[str]:
        """Latest journalled outcome for a spec, or ``None`` if absent."""
        if self._latest is None:
            self._latest = self._load()
        entry = self._latest.get(spec_hash)
        return entry.get("outcome") if entry else None

    def record(self, record: dict) -> None:
        """Append one metrics record (flushed immediately)."""
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(record, separators=(",", ":"),
                                      sort_keys=True) + "\n")
        self._handle.flush()
        if self._latest is not None:
            self._latest[record["spec_hash"]] = record

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __repr__(self) -> str:
        return f"BatchJournal(path={str(self.path)!r})"
