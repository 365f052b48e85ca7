"""On-disk memoisation of scenario results.

Results are pickled under ``<cache dir>/mod-<module digest>/<spec hash>.pkl``
where the *module digest* is the dependency-aware digest of the spec's
driver module (see :mod:`repro.runtime.depgraph`): the hash of the driver's
own source plus every module it can statically reach.  Editing an
experiment driver therefore invalidates only that driver's entries, while
editing something everyone imports (``simulator/topology.py``) invalidates
everything — stale results from older code can never be served, but
unrelated edits keep the cache warm.  A target the dependency graph cannot
resolve has no key, so it is never cached: :meth:`ResultCache.get` misses
and :meth:`ResultCache.put` stores nothing.  The graph keeps its per-file
stat index, ``depgraph-index.json``, beside the ``mod-*`` directories.

Entries are data: the executor pickles each miss once and hands the bytes
to :meth:`ResultCache.put` as they are, and drivers return summaries,
arrays and plain rows — never a network, a ``Flow`` or anything else a
reader would need the simulator's classes (and their pickle layout) for.

One entry per result: a result is stored by the batch it was asked of.
A batch opened while a spec executes is part of that spec, so the
executor gives it a disabled cache (see :mod:`repro.runtime.executor`): a
front-end run as a spec — a ``runner`` call, a campaign cell — leaves its
own entry and none for its cases, while a front-end called directly is
the outermost batch and leaves one entry per case.

Corrupt entries (truncated pickles, results pickled against code that no
longer exists) are deleted on load failure rather than left to fail again
forever; the executor reports them as ``cache="corrupt"`` in the runtime
metrics (:func:`~repro.runtime.metrics.tally` is the one count of hits,
misses and corrupt entries — the cache keeps no counters of its own).
Writes go through a temp file plus atomic rename, so a crashed or parallel
writer can at worst leave an orphan temp file, never a truncated entry.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Optional, Set

from . import depgraph

#: Sentinel distinguishing "no cached entry" from a cached ``None``.
MISS = object()


def cache_enabled() -> bool:
    """False when ``REPRO_NO_CACHE`` is set to anything but an explicit no.

    Anyone setting the variable wants the cache off; only the empty string
    and explicit falsy spellings (``0``, ``false``, ``no``, ``off``) keep
    it on.
    """
    return os.environ.get("REPRO_NO_CACHE", "").strip().lower() in (
        "", "0", "false", "no", "off")


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-runtime``."""
    override = os.environ.get("REPRO_CACHE_DIR", "")
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro-runtime"


def write_atomic(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` through a temp file + ``os.replace``.

    A crashed or parallel writer can at worst leave an orphan temp file,
    never a truncated ``path``.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class ResultCache:
    """Pickle-per-entry result store, keyed by spec hash under module digest.

    Args:
        directory: Cache root; defaults to :func:`default_cache_dir`.
        enabled: Defaults to :func:`cache_enabled` (``REPRO_NO_CACHE``).
        graph: Dependency graph used for module digests; defaults to the
            shared per-process graph (injectable for tests that build toy
            package trees).
    """

    def __init__(self, directory: Optional[Path] = None,
                 enabled: Optional[bool] = None,
                 graph: Optional["depgraph.DependencyGraph"] = None) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()
        self.enabled = cache_enabled() if enabled is None else enabled
        self.graph = graph
        self._corrupt_hashes: Set[str] = set()

    # ------------------------------------------------------------------ #
    # Key layout
    # ------------------------------------------------------------------ #
    def _entry_path(self, spec_hash: str, fn: str) -> Optional[Path]:
        """Where the entry of ``spec_hash`` lives; ``None`` when the cache
        is disabled or the dependency graph cannot resolve the module of
        ``fn`` (the spec's dotted ``"module:callable"`` target), which
        leaves the target without a key."""
        if not self.enabled:
            return None
        graph = self.graph if self.graph is not None \
            else depgraph.default_graph()
        try:
            digest = graph.digest_for(fn.partition(":")[0])
        except depgraph.DigestError:
            return None
        return self.directory / f"mod-{digest}" / f"{spec_hash}.pkl"

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def get(self, spec_hash: str, fn: str) -> Any:
        """The cached result, or the module-level ``MISS`` sentinel.

        ``fn`` is the spec's dotted target, which selects the per-module
        directory the entry lives under.  A corrupt entry — truncated,
        garbage, or pickled against code that no longer exists — is a miss;
        it is deleted so it cannot shadow the slot forever, and remembered
        for the executor's metrics (see :meth:`take_corrupt`).
        """
        path = self._entry_path(spec_hash, fn)
        if path is None:
            return MISS
        try:
            handle = open(path, "rb")
        except OSError:
            return MISS
        try:
            with handle:
                return pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            try:
                os.unlink(path)
            except OSError:
                pass
            self._corrupt_hashes.add(spec_hash)
            return MISS

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def put(self, spec_hash: str, data: bytes, fn: str) -> bool:
        """Store a result's pickle ``data`` verbatim; False when disabled,
        the target has no key or the write fails.

        The executor serialises each miss once and returns what those
        same bytes load to, so the entry is exactly what the batch saw.
        """
        path = self._entry_path(spec_hash, fn)
        if path is None:
            return False
        try:
            write_atomic(path, data)
        except OSError:
            return False
        return True

    def take_corrupt(self) -> Set[str]:
        """Spec hashes whose entries were corrupt since the last call.

        Returns and clears the set, so each :meth:`~repro.runtime.executor.
        BatchExecutor.run` reports only its own corruption events.
        """
        taken = self._corrupt_hashes
        self._corrupt_hashes = set()
        return taken
