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
memoised per process.  Resolution rules, deliberately simple and
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

A small CLI supports cache-key plumbing from CI::

    python -m repro.runtime.depgraph digest repro.experiments.link_flap
    python -m repro.runtime.depgraph deps repro.experiments.fig09_wan
    python -m repro.runtime.depgraph key repro.experiments.*  # one key
"""

from __future__ import annotations

import ast
import hashlib
import importlib.util
from pathlib import Path
from typing import Dict, Iterable, Mapping, Optional, Set, Tuple, Union

#: Length of the hex digests this module hands out (same as the legacy
#: whole-package digest, so directory names stay uniform).
DIGEST_LEN = 16


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
        self._sha_memo: Dict[Path, str] = {}
        self._imports_memo: Dict[str, Tuple[str, ...]] = {}
        self._digest_memo: Dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # Root management
    # ------------------------------------------------------------------ #
    def register(self, top: str, root: Union[str, Path]) -> None:
        """Track an additional top-level package (or single-file module)."""
        self._roots[top] = Path(root).resolve()
        self._unresolvable_tops.discard(top)
        self.invalidate()

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

    def _read(self, path: Path) -> bytes:
        resolved = path.resolve()
        if resolved in self._overlay:
            return self._overlay[resolved]
        return path.read_bytes()

    def _file_sha(self, path: Path) -> str:
        resolved = path.resolve()
        if resolved not in self._sha_memo:
            self._sha_memo[resolved] = hashlib.sha256(
                self._read(path)).hexdigest()
        return self._sha_memo[resolved]

    # ------------------------------------------------------------------ #
    # Import extraction
    # ------------------------------------------------------------------ #
    def imports_of(self, module: str) -> Tuple[str, ...]:
        """Tracked modules that ``module`` imports directly (sorted)."""
        if module in self._imports_memo:
            return self._imports_memo[module]
        path = self._module_file(module)
        found: Set[str] = set()
        if path is not None:
            try:
                tree = ast.parse(self._read(path))
            except SyntaxError:
                tree = None
            if tree is not None:
                is_pkg = path.name == "__init__.py"
                for node in ast.walk(tree):
                    if isinstance(node, ast.Import):
                        for alias in node.names:
                            if self._module_file(alias.name) is not None:
                                found.add(alias.name)
                    elif isinstance(node, ast.ImportFrom):
                        found.update(self._from_import_targets(
                            module, is_pkg, node))
        found.discard(module)
        resolved = tuple(sorted(found))
        self._imports_memo[module] = resolved
        return resolved

    def _from_import_targets(self, module: str, is_pkg: bool,
                             node: ast.ImportFrom) -> Set[str]:
        """Modules referenced by one ``from ... import ...`` statement."""
        if node.level == 0:
            base = node.module
        else:
            parts = module.split(".")
            if not is_pkg:
                parts = parts[:-1]
            strip = node.level - 1
            if strip > len(parts):
                return set()
            parts = parts[:len(parts) - strip] if strip else parts
            if not parts and not node.module:
                return set()
            base = ".".join(parts + node.module.split(".")) if node.module \
                else ".".join(parts)
        if not base:
            return set()
        targets: Set[str] = set()
        if node.module is not None:
            # The source module was named explicitly: depend on it.
            if self._module_file(base) is not None:
                targets.add(base)
            for alias in node.names:
                if alias.name == "*":
                    continue
                candidate = f"{base}.{alias.name}"
                if self._module_file(candidate) is not None:
                    targets.add(candidate)
        else:
            # ``from . import x``: depend on the named submodules; fall
            # back to the package __init__ only for pure attributes.
            for alias in node.names:
                if alias.name == "*":
                    continue
                candidate = f"{base}.{alias.name}"
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
                digest.update(self._file_sha(
                    self._module_file(name)).encode("ascii"))
                digest.update(b"\n")
            self._digest_memo[module] = digest.hexdigest()[:DIGEST_LEN]
        return self._digest_memo[module]

    def invalidate(self) -> None:
        """Forget memoised files/imports/digests (after an on-disk edit)."""
        self._file_memo.clear()
        self._sha_memo.clear()
        self._imports_memo.clear()
        self._digest_memo.clear()


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


def module_digest(module: str) -> str:
    """Dependency-aware digest of ``module`` via the default graph."""
    return default_graph().digest_for(module)


def invalidate() -> None:
    """Reset the default graph (tests/tools that edit sources mid-process)."""
    global _DEFAULT
    _DEFAULT = None


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
        if args.command == "digest":
            for module in args.modules:
                print(f"{module} {graph.digest_for(module)}")
        elif args.command == "deps":
            for name in graph.reachable(args.modules[0]):
                print(name)
        else:
            print(combined_key(args.modules))
    except DigestError as error:
        print(str(error), file=__import__("sys").stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    import sys

    sys.exit(main())
