"""Static per-module dependency digests for cache keying.

The result cache used to key every entry by a digest of *all* ``repro``
sources, so touching any file cold-started every cached scenario.  This
module computes something finer: for a driver module ``M``, the digest of
``M``'s source plus every module ``M`` can statically reach through its
import graph.  Editing ``experiments/link_flap.py`` then changes only the
digests of modules that can reach it (just itself), while editing
``simulator/topology.py`` changes the digest of every driver that —
transitively — imports the engine.

The graph is built with :mod:`ast`, never by importing anything, and is
memoised per process — and, per source file, across processes: see "The
stat index" below.  Resolution rules, deliberately simple and
deterministic:

* ``import a.b.c`` depends on module ``a.b.c``.
* ``from a.b import x`` depends on ``a.b`` and, when ``a.b.x`` is itself a
  module, on ``a.b.x`` too.
* ``from . import x`` depends on ``<package>.x`` when that is a module,
  else on the package ``__init__`` itself.
* Ancestor package ``__init__`` files are *not* pulled in implicitly:
  ``from .common import X`` inside ``repro.experiments.link_flap`` depends
  on ``repro.experiments.common``, not on the ``repro.experiments``
  aggregator (which imports every driver and would glue all their cache
  keys together).  An ``__init__`` is a dependency only where it is the
  named import source (``from ..runtime import ScenarioSpec``).
* Imports whose top-level package is not *tracked* (numpy, stdlib, ...)
  are ignored; third-party upgrades are not a cache-correctness concern
  for this repository's own simulations.

Tracked packages: ``repro`` is always tracked; the top-level package of
any digest entry point is auto-registered (so a test driver living in its
own toy package gets the same treatment).  Cycles are tolerated — the
reachable set is a plain closure, and the digest is computed over the
sorted (module name, source sha) pairs, so it is deterministic across
interpreter runs and hash seeds.

The stat index
--------------

Reading, hashing and parsing the ~50 files of a driver's closure used to
cost every process ~0.1 s — a third of a launch that is otherwise served
from cache.  What a file contributes (its content sha256 and its import
statements, still unresolved) is a pure function of its bytes, so the graph
keeps those per file in ``<cache dir>/depgraph-index.json`` and trusts an
entry only while the file's ``(st_size, st_mtime_ns, st_ctime_ns)`` are the
recorded ones *and* both times are strictly older than the index file's
own mtime, its write stamp (git's racy-clean rule: a file touched in the
instant the index was written could change again without its stat moving,
so it is re-hashed next time).
Everything that depends on more than one file — which names resolve to
tracked modules, the closure, the digest — is recomputed live, so an
indexed digest is the digest a fresh graph computes, at the price of one
``stat`` per closure file plus the ``is_file`` probes of name resolution.
An unreadable, truncated or wrong-schema index is ignored and replaced
(temp file + ``os.replace``).  Graphs built with ``overlay=`` and processes
running with ``REPRO_NO_CACHE`` neither read nor write it.

A small CLI supports cache-key plumbing from CI::

    python -m repro.runtime.depgraph digest repro.experiments.link_flap
    python -m repro.runtime.depgraph deps repro.experiments.fig09_wan
    python -m repro.runtime.depgraph key 'repro.experiments.*'  # one key
"""

from __future__ import annotations

import ast
import hashlib
import importlib.util
import json
import os
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

#: Length of the hex digests this module hands out (a cache entry lives
#: under ``mod-<digest>``).
DIGEST_LEN = 16

#: File name of the stat index inside the cache directory.
INDEX_NAME = "depgraph-index.json"
_INDEX_SCHEMA = 1

#: One import statement as the index stores it: ``[level, module, names]``,
#: ``names`` being ``None`` for a plain ``import module``.
ImportStatement = List[Union[int, str, None, List[str]]]


class DigestError(LookupError):
    """The entry-point module cannot be resolved to a source file."""


class DependencyGraph:
    """Memoised static import graph over a set of tracked packages.

    Args:
        packages: Mapping of top-level package name -> package directory
            (or single-module file).  ``repro`` is added automatically
            unless already present.
        overlay: Optional mapping of source path -> replacement bytes,
            consulted instead of the on-disk contents when hashing and
            parsing.  This answers "what would the digests be if I edited
            this file?" without touching the tree.
    """

    def __init__(self,
                 packages: Optional[Mapping[str, Union[str, Path]]] = None,
                 overlay: Optional[Mapping[Union[str, Path], bytes]] = None
                 ) -> None:
        self._roots: Dict[str, Path] = {}
        if packages:
            for name, root in packages.items():
                self._roots[name] = Path(root).resolve()
        if "repro" not in self._roots:
            import repro
            self._roots["repro"] = Path(repro.__file__).resolve().parent
        self._overlay: Dict[Path, bytes] = {}
        for key, value in (overlay or {}).items():
            data = value.encode("utf-8") if isinstance(value, str) else value
            self._overlay[Path(key).resolve()] = data
        self._unresolvable_tops: Set[str] = set()
        self._file_memo: Dict[str, Optional[Path]] = {}
        self._scan_memo: Dict[Path, Tuple[str, List[ImportStatement]]] = {}
        self._imports_memo: Dict[str, Tuple[str, ...]] = {}
        self._digest_memo: Dict[str, str] = {}
        #: The stat index: path -> [[size, mtime_ns, ctime_ns], sha256,
        #: import statements].  ``_index`` holds the stored entries that
        #: passed the racy-clean rule (``None`` until first needed, and for
        #: good in graphs that must not use one); ``_hashed`` what this
        #: process had to hash itself and will write back.
        self._index: Optional[Dict[str, list]] = None
        self._hashed: Dict[str, list] = {}
        self._index_dirty = False

    # ------------------------------------------------------------------ #
    # Root management
    # ------------------------------------------------------------------ #
    def _ensure_root(self, top: str) -> Optional[Path]:
        """Auto-register the entry point's top-level package if possible."""
        if top in self._roots:
            return self._roots[top]
        if top in self._unresolvable_tops:
            return None
        try:
            spec = importlib.util.find_spec(top)
        except (ImportError, ValueError):
            spec = None
        origin = getattr(spec, "origin", None)
        if not origin or not Path(origin).suffix == ".py":
            self._unresolvable_tops.add(top)
            return None
        path = Path(origin).resolve()
        root = path.parent if path.name == "__init__.py" else path
        self._roots[top] = root
        return root

    # ------------------------------------------------------------------ #
    # Module -> file resolution (tracked packages only)
    # ------------------------------------------------------------------ #
    def _module_file(self, module: str) -> Optional[Path]:
        if module in self._file_memo:
            return self._file_memo[module]
        top, _, rest = module.partition(".")
        root = self._roots.get(top)
        path: Optional[Path] = None
        if root is not None:
            if root.is_file():
                path = root if not rest else None
            else:
                sub = root.joinpath(*rest.split(".")) if rest else root
                init = sub / "__init__.py"
                if init.is_file():
                    path = init
                elif rest:
                    as_file = sub.parent / (sub.name + ".py")
                    if as_file.is_file():
                        path = as_file
        self._file_memo[module] = path
        return path

    # ------------------------------------------------------------------ #
    # Per-file facts: content sha + import statements (the stat index)
    # ------------------------------------------------------------------ #
    def _scanned(self, path: Path) -> Tuple[str, List[ImportStatement]]:
        """``(sha256, import statements)`` of one source file.

        Served from the stat index while the file's stat is the recorded
        one (see the module docstring); otherwise the file is read, hashed
        and parsed, and queued for the next index write.
        """
        if path in self._scan_memo:
            return self._scan_memo[path]
        index = self._loaded_index()
        if index is None:
            overlaid = self._overlay.get(path.resolve()) \
                if self._overlay else None
            scanned = _scan_source(path.read_bytes() if overlaid is None
                                   else overlaid)
        else:
            status = os.stat(path)
            stat = [status.st_size, status.st_mtime_ns, status.st_ctime_ns]
            entry = index.get(str(path))
            if entry is not None and entry[0] == stat:
                scanned = entry[1], entry[2]
            else:
                scanned = _scan_source(path.read_bytes())
                self._hashed[str(path)] = [stat, *scanned]
                self._index_dirty = True
        self._scan_memo[path] = scanned
        return scanned

    def _loaded_index(self) -> Optional[Dict[str, list]]:
        """The stat index, read on first use; ``None`` = do without one."""
        if self._index is None and not self._overlay:
            path = _index_path()
            if path is not None:
                self._index = _read_index(path)
        return self._index

    def _save_index(self) -> None:
        """Write the index back if this process hashed anything itself."""
        path = _index_path() if self._index_dirty else None
        if path is None:
            return
        from .cache import write_atomic

        files = {name: entry
                 for name, entry in {**self._index, **self._hashed}.items()
                 if os.path.exists(name)}
        payload = json.dumps({"schema": _INDEX_SCHEMA, "files": files},
                             separators=(",", ":"))
        try:
            write_atomic(path, payload.encode("ascii"))
        except OSError:
            return  # an unwritable cache dir costs the next process a re-hash
        self._index_dirty = False

    # ------------------------------------------------------------------ #
    # Import resolution
    # ------------------------------------------------------------------ #
    def imports_of(self, module: str) -> Tuple[str, ...]:
        """Tracked modules that ``module`` imports directly (sorted)."""
        if module in self._imports_memo:
            return self._imports_memo[module]
        path = self._module_file(module)
        found: Set[str] = set()
        if path is not None:
            is_pkg = path.name == "__init__.py"
            for level, source, names in self._scanned(path)[1]:
                if names is None:
                    if self._module_file(source) is not None:
                        found.add(source)
                else:
                    found.update(self._from_import_targets(
                        module, is_pkg, level, source, names))
        found.discard(module)
        resolved = tuple(sorted(found))
        self._imports_memo[module] = resolved
        return resolved

    def _from_import_targets(self, module: str, is_pkg: bool, level: int,
                             source: Optional[str],
                             names: Iterable[str]) -> Set[str]:
        """Modules referenced by ``from <level dots><source> import names``."""
        if level == 0:
            base = source
        else:
            parts = module.split(".")
            if not is_pkg:
                parts = parts[:-1]
            strip = level - 1
            if strip > len(parts):
                return set()
            parts = parts[:len(parts) - strip] if strip else parts
            if not parts and not source:
                return set()
            base = ".".join(parts + source.split(".")) if source \
                else ".".join(parts)
        if not base:
            return set()
        targets: Set[str] = set()
        if source is not None:
            # The source module was named explicitly: depend on it.
            if self._module_file(base) is not None:
                targets.add(base)
            for name in names:
                if name == "*":
                    continue
                candidate = f"{base}.{name}"
                if self._module_file(candidate) is not None:
                    targets.add(candidate)
        else:
            # ``from . import x``: depend on the named submodules; fall
            # back to the package __init__ only for pure attributes.
            for name in names:
                if name == "*":
                    continue
                candidate = f"{base}.{name}"
                if self._module_file(candidate) is not None:
                    targets.add(candidate)
                elif self._module_file(base) is not None:
                    targets.add(base)
        return targets

    # ------------------------------------------------------------------ #
    # Reachability and digests
    # ------------------------------------------------------------------ #
    def reachable(self, module: str) -> Tuple[str, ...]:
        """Sorted transitive import closure of ``module`` (inclusive).

        Cycles are harmless: the walk keeps a visited set, so mutually
        importing modules simply end up in each other's closures.
        """
        self._ensure_root(module.partition(".")[0])
        if self._module_file(module) is None:
            raise DigestError(
                f"cannot resolve {module!r} to a tracked source file "
                f"(tracked: {sorted(self._roots)})")
        seen: Set[str] = set()
        stack = [module]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(name for name in self.imports_of(current)
                         if name not in seen)
        return tuple(sorted(seen))

    def modules_in(self, package: str) -> Tuple[str, ...]:
        """Sorted direct submodules (and subpackages) of a tracked package."""
        self._ensure_root(package.partition(".")[0])
        init = self._module_file(package)
        if init is None or init.name != "__init__.py":
            raise DigestError(f"{package!r} is not a tracked package")
        return tuple(sorted(
            f"{package}.{entry.stem}" for entry in init.parent.iterdir()
            if (entry.suffix == ".py" and entry.stem != "__init__")
            or (entry / "__init__.py").is_file()))

    def digest_for(self, module: str) -> str:
        """Hex digest of ``module``'s reachable closure (name + source sha).

        Deterministic across processes and interpreter hash seeds: the
        closure is sorted by module name and every file contributes its
        content sha256.
        """
        if module not in self._digest_memo:
            digest = hashlib.sha256()
            for name in self.reachable(module):
                digest.update(name.encode("utf-8"))
                digest.update(b"\0")
                digest.update(self._scanned(
                    self._module_file(name))[0].encode("ascii"))
                digest.update(b"\n")
            self._digest_memo[module] = digest.hexdigest()[:DIGEST_LEN]
            self._save_index()
        return self._digest_memo[module]


#: The fields through which a statement holds other statements, in
#: ``_fields`` order; imports are statements, so expressions are not visited.
_BLOCKS = ("body", "handlers", "orelse", "finalbody", "cases")


def _scan_source(source: bytes) -> Tuple[str, List[ImportStatement]]:
    """Content sha256 and import statements of one file's bytes.

    The statements are kept unresolved (dots, source, names as written),
    so the pair depends on the bytes alone and can outlive the process.
    """
    statements: List[ImportStatement] = []
    try:
        tree = ast.parse(source)
    except SyntaxError:
        tree = None
    todo = [] if tree is None else [tree]
    for node in todo:  # grows as it is read: ast.walk's order, statements only
        if isinstance(node, ast.Import):
            statements.extend([0, alias.name, None] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            statements.append([node.level, node.module,
                               [alias.name for alias in node.names]])
        else:
            for block in _BLOCKS:
                todo.extend(getattr(node, block, ()))
    return hashlib.sha256(source).hexdigest(), statements


def _index_path() -> Optional[Path]:
    """Where the stat index lives; ``None`` while the cache is switched off."""
    from . import cache  # which imports this module at load time

    if not cache.cache_enabled():
        return None
    return cache.default_cache_dir() / INDEX_NAME


def _read_index(path: Path) -> Dict[str, list]:
    """The trustworthy entries of a stored index; ``{}`` if unusable.

    The index file's mtime is its write stamp: an entry whose file was not
    strictly older than that was racily clean when written and is dropped,
    to be re-hashed on next use.
    """
    try:
        with open(path, "rb") as handle:
            stamp = os.fstat(handle.fileno()).st_mtime_ns
            stored = json.load(handle)
        if stored["schema"] != _INDEX_SCHEMA:
            return {}
        return {name: entry for name, entry in stored["files"].items()
                if _valid_entry(entry) and max(entry[0][1:]) < stamp}
    except (OSError, ValueError, TypeError, KeyError, AttributeError):
        return {}  # absent, truncated, garbage: rebuilt and replaced on save


def _valid_entry(entry: object) -> bool:
    """Whether a stored index entry has the shape ``_scanned`` relies on."""
    try:
        stat, sha, statements = entry
        return (len(stat) == 3 and all(type(n) is int for n in stat)
                and isinstance(sha, str)
                and all(type(level) is int
                        and (source is None or isinstance(source, str))
                        and (names is None or all(isinstance(name, str)
                                                  for name in names))
                        and not (source is None and names is None)
                        for level, source, names in statements))
    except (TypeError, ValueError):
        return False


# ---------------------------------------------------------------------- #
# Process-wide default graph
# ---------------------------------------------------------------------- #
_DEFAULT: Optional[DependencyGraph] = None


def default_graph() -> DependencyGraph:
    """The shared per-process graph (tracks ``repro``; memoised)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = DependencyGraph()
    return _DEFAULT


def combined_key(modules: Iterable[str]) -> str:
    """One stable key covering several entry points (CI cache key)."""
    graph = default_graph()
    digest = hashlib.sha256()
    for name in sorted(set(modules)):
        digest.update(f"{name}={graph.digest_for(name)}\n".encode("ascii"))
    return digest.hexdigest()[:DIGEST_LEN]


def main(argv=None) -> int:
    """``python -m repro.runtime.depgraph {digest,deps,key} MODULE...``"""
    import argparse

    parser = argparse.ArgumentParser(
        description="Per-module dependency-aware cache digests.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, nargs in (("digest", "+"), ("deps", None), ("key", "+")):
        cmd = sub.add_parser(name)
        cmd.add_argument("modules", nargs=nargs or 1,
                         metavar="MODULE",
                         help="Dotted module name, e.g. "
                              "repro.experiments.link_flap")
    args = parser.parse_args(argv)
    graph = default_graph()
    try:
        # ``pkg.*`` stands for every module directly inside ``pkg``.
        modules = [name for given in args.modules
                   for name in (graph.modules_in(given[:-2])
                                if given.endswith(".*") else (given,))]
        if args.command == "digest":
            for module in modules:
                print(f"{module} {graph.digest_for(module)}")
        elif args.command == "deps":
            for name in graph.reachable(modules[0]):
                print(name)
        else:
            print(combined_key(modules))
    except DigestError as error:
        print(str(error), file=__import__("sys").stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    import sys

    sys.exit(main())
