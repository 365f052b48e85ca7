"""Completed-spec journal: crash-safe bookkeeping for resumable batches.

A :class:`BatchJournal` is an append-only JSONL file recording the terminal
state of every spec of a batch — one line per resolution, flushed as soon
as it happens, so a batch killed mid-run (crash, ^C, OOM) leaves a truthful
record of what finished.  A subsequent run with ``resume=True`` keeps the
journal and re-attempts only the specs that failed or never completed:
specs journalled ``ok`` are served from the on-disk result cache (their
results were cached before they were journalled), everything else is a
cache miss and executes again.

Journal line schema (``JOURNAL_SCHEMA_VERSION`` = 1): ``schema_version``,
``spec_hash``, ``label``, ``outcome`` (``ok``/``error``/``timeout``/
``crash``), ``attempts`` (0 for cache hits), ``seconds`` (wall time or
null), ``error`` (message string or null).  A spec appearing several times
keeps its latest line.

The default journal location is derived from the batch content —
``<cache_dir>/journals/<batch_id>.jsonl`` with :func:`batch_id` the hash
of the sorted spec hashes — so re-running the same batch finds its own
journal without any path plumbing.

An ``ok`` line promises a loadable result: the executor caches a spec's
bytes *before* journalling it, so a batch killed between the two re-runs
one spec instead of trusting a line with nothing behind it.  A campaign
(:mod:`repro.runtime.campaign`) is one batch on one journal that every
``resume`` appends to; ``repro-campaign status`` counts its cells per
outcome through :meth:`BatchJournal.outcome_of`.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import IO, Dict, Optional, Sequence, Union

from .cache import default_cache_dir
from .metrics import OUTCOMES

#: Version tag stamped into every journal line.
JOURNAL_SCHEMA_VERSION = 1


def batch_id(spec_hashes: Sequence[str]) -> str:
    """Content id of a batch: hash of its sorted spec hashes.

    Sorted, so the id is insensitive to batch order; two invocations that
    run the same set of specs share a journal.
    """
    digest = hashlib.sha256("\n".join(sorted(spec_hashes)).encode("ascii"))
    return digest.hexdigest()[:16]


def default_journal_path(batch: str) -> str:
    """Default journal location for a :func:`batch_id`."""
    return str(Path(default_cache_dir()) / "journals" / f"{batch}.jsonl")


class BatchJournal:
    """Append-only terminal-state journal for one batch.

    Args:
        path: JSONL file to append to (parent directories are created).
        resume: Keep and load an existing journal instead of truncating
            it.  Without ``resume`` every run starts a fresh journal —
            stale outcomes from a previous batch must not mask new ones.
    """

    def __init__(self, path: Union[str, os.PathLike],
                 resume: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: Latest journalled record per spec hash.
        self.entries: Dict[str, dict] = {}
        if resume:
            self._load()
        elif self.path.exists():
            self.path.unlink()
        self._handle: Optional[IO[str]] = None

    def _load(self) -> None:
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    # A run killed mid-write can leave one torn final line;
                    # everything before it is still trustworthy.
                    continue
                if isinstance(record, dict) and "spec_hash" in record:
                    self.entries[record["spec_hash"]] = record

    # ------------------------------------------------------------------ #
    def outcome_of(self, spec_hash: str) -> Optional[str]:
        """Latest journalled outcome for a spec, or ``None`` if absent."""
        entry = self.entries.get(spec_hash)
        return entry.get("outcome") if entry else None

    def record(self, *, spec_hash: str, label: str, outcome: str,
               attempts: int, seconds: Optional[float],
               error: Optional[str] = None) -> dict:
        """Append one terminal-state line (flushed immediately)."""
        if outcome not in OUTCOMES:
            raise ValueError(f"outcome must be one of {OUTCOMES}, "
                             f"got {outcome!r}")
        entry = {
            "schema_version": JOURNAL_SCHEMA_VERSION,
            "spec_hash": spec_hash,
            "label": label,
            "outcome": outcome,
            "attempts": int(attempts),
            "seconds": seconds,
            "error": error,
        }
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(entry, separators=(",", ":"),
                                      sort_keys=True) + "\n")
        self._handle.flush()
        self.entries[spec_hash] = entry
        return entry

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __repr__(self) -> str:
        return (f"BatchJournal(path={str(self.path)!r}, "
                f"entries={len(self.entries)})")
