"""Per-module dependency digests: closure rules, granularity, determinism."""

from __future__ import annotations

import ast
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runtime import depgraph
from repro.runtime.depgraph import DependencyGraph, DigestError, combined_key


# --------------------------------------------------------------------- #
# A toy package with a shared engine, two drivers, and an import cycle
# --------------------------------------------------------------------- #
_TOY_SOURCES = {
    "__init__.py": "",
    "util.py": "X = 1\n",
    "engine.py": ("from .util import X\n"
                  "\n"
                  "def simulate(n):\n"
                  "    return X * n\n"),
    "driver_a.py": ("from .engine import simulate\n"
                    "\n"
                    "def run(n=1):\n"
                    "    return {'a': simulate(n)}\n"),
    "driver_b.py": ("from . import engine\n"
                    "\n"
                    "def run(n=1):\n"
                    "    return {'b': engine.simulate(n)}\n"),
    "cyc_a.py": "import toypkg.cyc_b\nA = 1\n",
    "cyc_b.py": "from .cyc_a import A\nB = A\n",
    "sub/__init__.py": "VALUE = 3\n",
    "attr_user.py": "from .sub import VALUE\n",
}


@pytest.fixture
def toy_root(tmp_path):
    root = tmp_path / "toypkg"
    for name, text in _TOY_SOURCES.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


@pytest.fixture
def toy_graph(toy_root):
    return DependencyGraph(packages={"toypkg": toy_root})


# --------------------------------------------------------------------- #
# Closure rules
# --------------------------------------------------------------------- #
def test_closure_follows_explicit_imports(toy_graph):
    assert toy_graph.reachable("toypkg.driver_a") == (
        "toypkg.driver_a", "toypkg.engine", "toypkg.util")


def test_from_package_import_module_targets_the_module(toy_graph):
    # ``from . import engine`` depends on the submodule, not on the
    # package __init__ (which would glue every driver's key together).
    closure = toy_graph.reachable("toypkg.driver_b")
    assert "toypkg.engine" in closure
    assert "toypkg" not in closure


def test_named_package_source_is_a_dependency(toy_graph):
    # ``from .sub import VALUE`` names the package explicitly, so its
    # __init__ is a legitimate dependency.
    assert "toypkg.sub" in toy_graph.reachable("toypkg.attr_user")


def test_import_cycles_are_tolerated(toy_graph):
    closure = toy_graph.reachable("toypkg.cyc_a")
    assert "toypkg.cyc_a" in closure and "toypkg.cyc_b" in closure
    assert toy_graph.digest_for("toypkg.cyc_a")
    assert toy_graph.digest_for("toypkg.cyc_b")


#: Imports everywhere a statement can sit — and nowhere an expression can.
_NESTED_SOURCE = """\
from __future__ import annotations
from typing import TYPE_CHECKING
if TYPE_CHECKING:
    from .util import X
elif X:
    import toypkg.cyc_b
else:
    from . import driver_b
try:
    from .engine import simulate
except ImportError:
    from . import driver_a
else:
    from .sub import VALUE
finally:
    import toypkg.cyc_a
with open(__file__) as handle:
    from . import attr_user
for _ in ():
    import json
else:
    import os.path
while False:
    import hashlib, time
match VALUE:
    case 3:
        from .util import X as Y
    case _:
        import sys
class Outer:
    class Inner:
        def method(self):
            async def deeper():
                from .engine import simulate as again
            return [lambda: (yield)] and deeper
"""


def _walk_everything(source):
    """The scan as it was: ``ast.walk`` over every node of the tree."""
    statements = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            statements.extend([0, alias.name, None] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            statements.append([node.level, node.module,
                               [alias.name for alias in node.names]])
    return statements


def test_imports_are_found_wherever_a_statement_can_sit(toy_root):
    sha, statements = depgraph._scan_source(_NESTED_SOURCE.encode())
    assert sha == hashlib.sha256(_NESTED_SOURCE.encode()).hexdigest()
    assert statements == _walk_everything(_NESTED_SOURCE)
    assert len(statements) == 17
    (toy_root / "nested.py").write_text(_NESTED_SOURCE, encoding="utf-8")
    graph = DependencyGraph(packages={"toypkg": toy_root})
    assert graph.reachable("toypkg.nested") == (
        "toypkg.attr_user", "toypkg.cyc_a", "toypkg.cyc_b",
        "toypkg.driver_a", "toypkg.driver_b", "toypkg.engine",
        "toypkg.nested", "toypkg.sub", "toypkg.util")


def test_statement_walk_equals_the_full_walk_on_the_real_tree():
    root = Path(depgraph.__file__).resolve().parents[1]
    files = sorted(root.rglob("*.py"))
    assert len(files) > 80
    for path in files:
        source = path.read_bytes()
        assert depgraph._scan_source(source)[1] == _walk_everything(source), \
            path


def test_unresolvable_module_raises(toy_graph):
    with pytest.raises(DigestError):
        toy_graph.reachable("toypkg.no_such_module")
    with pytest.raises(DigestError):
        DependencyGraph().digest_for("no_such_package.mod")


# --------------------------------------------------------------------- #
# Granularity: the reason this module exists
# --------------------------------------------------------------------- #
def _overlay_graph(toy_root, filename):
    original = (toy_root / filename).read_bytes()
    return DependencyGraph(
        packages={"toypkg": toy_root},
        overlay={toy_root / filename: original + b"\n# edited\n"})


def test_editing_a_driver_keeps_other_digests_warm(toy_root, toy_graph):
    edited = _overlay_graph(toy_root, "driver_a.py")
    assert edited.digest_for("toypkg.driver_a") != \
        toy_graph.digest_for("toypkg.driver_a")
    assert edited.digest_for("toypkg.driver_b") == \
        toy_graph.digest_for("toypkg.driver_b")
    assert edited.digest_for("toypkg.engine") == \
        toy_graph.digest_for("toypkg.engine")


def test_editing_the_engine_invalidates_every_driver(toy_root, toy_graph):
    edited = _overlay_graph(toy_root, "engine.py")
    for module in ("toypkg.driver_a", "toypkg.driver_b", "toypkg.engine"):
        assert edited.digest_for(module) != toy_graph.digest_for(module)


def test_transitive_edits_propagate(toy_root, toy_graph):
    # util.py is two hops from the drivers; its edit must still reach them.
    edited = _overlay_graph(toy_root, "util.py")
    assert edited.digest_for("toypkg.driver_a") != \
        toy_graph.digest_for("toypkg.driver_a")
    assert edited.digest_for("toypkg.driver_b") != \
        toy_graph.digest_for("toypkg.driver_b")


def test_on_disk_edit_reaches_the_next_graph(toy_root, toy_graph):
    before = toy_graph.digest_for("toypkg.driver_a")
    keep = toy_graph.digest_for("toypkg.driver_b")
    with open(toy_root / "driver_a.py", "a", encoding="utf-8") as handle:
        handle.write("\n# on-disk edit\n")
    fresh = DependencyGraph(packages={"toypkg": toy_root})
    assert fresh.digest_for("toypkg.driver_a") != before
    assert fresh.digest_for("toypkg.driver_b") == keep


# --------------------------------------------------------------------- #
# Determinism
# --------------------------------------------------------------------- #
def _digest_in_subprocess(toy_root, module, hashseed, prelude=""):
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = str(hashseed)
    code = (prelude +
            "from repro.runtime.depgraph import DependencyGraph; "
            f"g = DependencyGraph(packages={{'toypkg': {str(toy_root)!r}}}); "
            f"print(g.digest_for({module!r}))")
    out = subprocess.check_output([sys.executable, "-c", code], env=env)
    return out.decode().strip()


def test_digest_is_deterministic_across_interpreter_runs(toy_root, toy_graph):
    """Same sources -> same digest, regardless of process or hash seed."""
    local = toy_graph.digest_for("toypkg.driver_a")
    assert _digest_in_subprocess(toy_root, "toypkg.driver_a", 0) == local
    assert _digest_in_subprocess(toy_root, "toypkg.driver_a", 12345) == local


def test_fresh_graph_instances_agree(toy_root, toy_graph):
    again = DependencyGraph(packages={"toypkg": toy_root})
    assert again.digest_for("toypkg.driver_b") == \
        toy_graph.digest_for("toypkg.driver_b")


# --------------------------------------------------------------------- #
# The stat index: what a file contributes, kept across processes
# --------------------------------------------------------------------- #
_NO_PARSING = ("import ast\n"
               "def _refuse(*args, **kwargs):\n"
               "    raise AssertionError('ast.parse called')\n"
               "ast.parse = _refuse\n")


@pytest.fixture
def index_path():
    """Where the graphs of this test keep their index (see conftest)."""
    return Path(os.environ["REPRO_CACHE_DIR"]) / depgraph.INDEX_NAME


def _toy(toy_root, **kwargs):
    return DependencyGraph(packages={"toypkg": toy_root}, **kwargs)


def _unindexed_digest(toy_root, module, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setenv("REPRO_NO_CACHE", "1")
        return _toy(toy_root).digest_for(module)


def _age(*paths):
    """Let the clock that stamps files tick, so ``paths`` are strictly
    older than whatever is written next (kernels stamp files from a clock
    that advances every 1-10 ms)."""
    newest = max(max(os.stat(path).st_mtime_ns, os.stat(path).st_ctime_ns)
                 for path in paths)
    probe = Path(paths[0]).parent / ".clock-probe"
    while True:
        probe.write_bytes(b"")
        if os.stat(probe).st_mtime_ns > newest:
            break
        time.sleep(0.002)
    probe.unlink()


def _forbid_parsing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ast.parse called")
    monkeypatch.setattr(depgraph.ast, "parse", refuse)


def test_index_is_written_next_to_the_results(toy_root, index_path):
    assert not index_path.exists()
    _toy(toy_root).digest_for("toypkg.driver_a")
    stored = json.loads(index_path.read_bytes())
    assert stored["schema"] == 1
    assert sorted(Path(name).name for name in stored["files"]) == [
        "driver_a.py", "engine.py", "util.py"]
    stat, sha, statements = stored["files"][str(toy_root / "engine.py")]
    status = os.stat(toy_root / "engine.py")
    assert stat == [status.st_size, status.st_mtime_ns, status.st_ctime_ns]
    assert sha == hashlib.sha256(
        (toy_root / "engine.py").read_bytes()).hexdigest()
    assert statements == [[1, "util", ["X"]]]
    assert [path.name for path in index_path.parent.iterdir()] == [
        depgraph.INDEX_NAME]  # the temp file was renamed, not left behind


def test_indexed_digests_equal_fresh_digests_for_every_real_driver(
        monkeypatch):
    drivers = DependencyGraph().modules_in("repro.experiments")
    assert "repro.experiments.fig09_wan" in drivers
    writer = DependencyGraph()
    written = {module: writer.digest_for(module) for module in drivers}
    with monkeypatch.context() as patch:
        patch.setenv("REPRO_NO_CACHE", "1")
        fresh = DependencyGraph()
        assert {module: fresh.digest_for(module)
                for module in drivers} == written
    _forbid_parsing(monkeypatch)
    reader = DependencyGraph()
    assert {module: reader.digest_for(module)
            for module in drivers} == written


def test_second_process_hashes_and_parses_nothing(toy_root, toy_graph):
    _age(*toy_root.glob("*.py"))
    first = _digest_in_subprocess(toy_root, "toypkg.driver_a", 0)
    assert first == toy_graph.digest_for("toypkg.driver_a")
    assert _digest_in_subprocess(toy_root, "toypkg.driver_a", 1,
                                 prelude=_NO_PARSING) == first


def test_same_size_edit_with_restored_mtime_changes_the_digest(
        toy_root, index_path, monkeypatch):
    """Only ``st_ctime_ns`` gives this edit away."""
    util = toy_root / "util.py"
    _age(util)
    before = _toy(toy_root).digest_for("toypkg.driver_a")
    _age(index_path)
    status = os.stat(util)
    util.write_text("X = 2\n", encoding="utf-8")
    os.utime(util, ns=(status.st_atime_ns, status.st_mtime_ns))
    edited = os.stat(util)
    assert (edited.st_size, edited.st_mtime_ns) == \
        (status.st_size, status.st_mtime_ns)
    after = _toy(toy_root).digest_for("toypkg.driver_a")
    assert after != before
    assert after == _unindexed_digest(toy_root, "toypkg.driver_a",
                                      monkeypatch)


def test_file_not_older_than_the_index_is_hashed_again(
        toy_root, index_path, monkeypatch):
    """The racy-clean rule: a file written in the instant the index was
    could change again without its stat moving, so its entry is not
    believed — shown here with an entry whose sha is wrong."""
    truth = _toy(toy_root).digest_for("toypkg.driver_a")
    util = str(toy_root / "util.py")
    stored = json.loads(index_path.read_bytes())
    stored["files"][util][1] = "0" * 64
    index_path.write_text(json.dumps(stored))
    instant = os.stat(util).st_ctime_ns
    os.utime(index_path, ns=(instant, instant))
    assert _toy(toy_root).digest_for("toypkg.driver_a") == truth
    # ...and re-hashing it replaced the poisoned entry.
    assert json.loads(index_path.read_bytes())["files"][util][1] != "0" * 64
    # Believed when strictly older — which is why the rule is needed.
    stored["files"][util][1] = "0" * 64
    index_path.write_text(json.dumps(stored))
    newest = max(os.stat(path).st_ctime_ns for path in toy_root.glob("*.py"))
    os.utime(index_path, ns=(newest + 1, newest + 1))
    with monkeypatch.context() as patch:
        _forbid_parsing(patch)
        assert _toy(toy_root).digest_for("toypkg.driver_a") != truth


@pytest.mark.parametrize("garbage", [
    b"", b'{"schema": 1, "files": {"/x.py": [[1, 2', b"\x80\x04not json",
    b"[]", b'{"schema": 99, "files": {}}', b'{"schema": 1, "files": 7}',
    b'{"schema": 1}',
], ids=["empty", "truncated", "binary", "list", "schema", "files", "keys"])
def test_unusable_index_is_ignored_and_replaced(toy_root, index_path,
                                                garbage, monkeypatch):
    truth = _unindexed_digest(toy_root, "toypkg.driver_a", monkeypatch)
    index_path.parent.mkdir(parents=True)
    index_path.write_bytes(garbage)
    assert _toy(toy_root).digest_for("toypkg.driver_a") == truth
    assert len(json.loads(index_path.read_bytes())["files"]) == 3
    assert [path.name for path in index_path.parent.iterdir()] == [
        depgraph.INDEX_NAME]


def test_malformed_entries_are_dropped_one_by_one(toy_root, index_path):
    truth = _toy(toy_root).digest_for("toypkg.driver_a")
    _age(index_path)
    stored = json.loads(index_path.read_bytes())
    engine, util = str(toy_root / "engine.py"), str(toy_root / "util.py")
    stored["files"][engine][2] = [[1, None, None]]  # no such statement
    stored["files"][util] = [stored["files"][util][0], 5]
    index_path.write_text(json.dumps(stored))
    assert _toy(toy_root).digest_for("toypkg.driver_a") == truth
    rewritten = json.loads(index_path.read_bytes())["files"]
    assert rewritten[engine][2] == [[1, "util", ["X"]]]
    assert len(rewritten[util]) == 3


def test_overlay_graphs_neither_read_nor_write_the_index(
        toy_root, index_path, monkeypatch):
    _overlay_graph(toy_root, "driver_a.py").digest_for("toypkg.driver_a")
    assert not index_path.exists()
    truth = _toy(toy_root).digest_for("toypkg.driver_a")
    _age(index_path)
    stored = json.loads(index_path.read_bytes())
    for entry in stored["files"].values():
        entry[1] = "0" * 64
    poisoned = json.dumps(stored)
    index_path.write_text(poisoned)
    _age(index_path)
    same_bytes = _toy(toy_root, overlay={
        toy_root / "driver_a.py": (toy_root / "driver_a.py").read_bytes()})
    assert same_bytes.digest_for("toypkg.driver_a") == truth
    assert index_path.read_text() == poisoned


def test_no_cache_env_writes_no_index(toy_root, index_path, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    _toy(toy_root).digest_for("toypkg.driver_a")
    assert not index_path.parent.exists()


def test_deleted_files_leave_the_index(toy_root, index_path):
    _toy(toy_root).digest_for("toypkg.driver_a")
    (toy_root / "driver_a.py").unlink()
    _toy(toy_root).digest_for("toypkg.driver_b")
    assert sorted(Path(name).name for name in json.loads(
        index_path.read_bytes())["files"]) == [
            "driver_b.py", "engine.py", "util.py"]


def test_unwritable_cache_dir_only_costs_the_rehash(toy_root, index_path,
                                                    monkeypatch):
    index_path.parent.write_text("a file where the directory should be")
    assert _toy(toy_root).digest_for("toypkg.driver_a") == \
        _unindexed_digest(toy_root, "toypkg.driver_a", monkeypatch)


# --------------------------------------------------------------------- #
# The real package: the property the result cache relies on
# --------------------------------------------------------------------- #
def _origin(module):
    return Path(importlib.util.find_spec(module).origin)


def test_real_drivers_share_the_engine_but_not_each_other():
    graph = DependencyGraph()
    flap = graph.reachable("repro.experiments.link_flap")
    wan = graph.reachable("repro.experiments.fig09_wan")
    assert "repro.simulator.topology" in flap
    assert "repro.simulator.topology" in wan
    assert "repro.experiments.fig09_wan" not in flap
    assert "repro.experiments.link_flap" not in wan
    # The aggregator __init__ imports every driver; including it would
    # collapse all driver digests into one.
    assert "repro.experiments" not in flap
    assert "repro.experiments" not in wan


def test_real_driver_edit_keeps_the_other_family_warm():
    clean = DependencyGraph()
    path = _origin("repro.experiments.link_flap")
    edited = DependencyGraph(
        overlay={path: path.read_bytes() + b"\n# what-if\n"})
    assert edited.digest_for("repro.experiments.link_flap") != \
        clean.digest_for("repro.experiments.link_flap")
    assert edited.digest_for("repro.experiments.fig09_wan") == \
        clean.digest_for("repro.experiments.fig09_wan")


def test_real_engine_edit_invalidates_every_driver():
    clean = DependencyGraph()
    path = _origin("repro.simulator.topology")
    edited = DependencyGraph(
        overlay={path: path.read_bytes() + b"\n# what-if\n"})
    for module in ("repro.experiments.link_flap",
                   "repro.experiments.fig09_wan"):
        assert edited.digest_for(module) != clean.digest_for(module)


# --------------------------------------------------------------------- #
# Module-level helpers and CLI
# --------------------------------------------------------------------- #
def test_combined_key_is_order_independent():
    modules = ("repro.experiments.link_flap", "repro.experiments.fig09_wan")
    assert combined_key(modules) == combined_key(tuple(reversed(modules)))
    assert len(combined_key(modules)) == depgraph.DIGEST_LEN


def test_cli_digest_deps_key(capsys):
    assert depgraph.main(["digest", "repro.experiments.link_flap"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("repro.experiments.link_flap ")

    assert depgraph.main(["deps", "repro.experiments.link_flap"]) == 0
    deps = capsys.readouterr().out.split()
    assert "repro.simulator.topology" in deps

    assert depgraph.main(["key", "repro.experiments.link_flap",
                          "repro.experiments.fig09_wan"]) == 0
    key = capsys.readouterr().out.strip()
    assert key == combined_key(("repro.experiments.link_flap",
                                "repro.experiments.fig09_wan"))


def test_cli_expands_a_package_wildcard(capsys):
    assert depgraph.main(["digest", "repro.experiments.*"]) == 0
    lines = capsys.readouterr().out.splitlines()
    graph = DependencyGraph()
    assert lines == [f"{module} {graph.digest_for(module)}" for module
                     in graph.modules_in("repro.experiments")]
    assert depgraph.main(["key", "repro.experiments.*"]) == 0
    assert capsys.readouterr().out.strip() == combined_key(
        graph.modules_in("repro.experiments"))
    assert depgraph.main(["digest", "repro.experiments.link_flap.*"]) == 2
    assert "not a tracked package" in capsys.readouterr().err


def test_cli_unresolvable_module_exits_2(capsys):
    assert depgraph.main(["digest", "repro.no_such_module"]) == 2
    assert "no_such_module" in capsys.readouterr().err
