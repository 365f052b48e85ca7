"""Per-module dependency digests: closure rules, granularity, determinism."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
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


def test_on_disk_edit_after_invalidate(toy_root, toy_graph):
    before = toy_graph.digest_for("toypkg.driver_a")
    keep = toy_graph.digest_for("toypkg.driver_b")
    with open(toy_root / "driver_a.py", "a", encoding="utf-8") as handle:
        handle.write("\n# on-disk edit\n")
    toy_graph.invalidate()
    assert toy_graph.digest_for("toypkg.driver_a") != before
    assert toy_graph.digest_for("toypkg.driver_b") == keep


# --------------------------------------------------------------------- #
# Determinism
# --------------------------------------------------------------------- #
def _digest_in_subprocess(toy_root, module, hashseed):
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = str(hashseed)
    code = ("from repro.runtime.depgraph import DependencyGraph; "
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


def test_cli_unresolvable_module_exits_2(capsys):
    assert depgraph.main(["digest", "repro.no_such_module"]) == 2
    assert "no_such_module" in capsys.readouterr().err
