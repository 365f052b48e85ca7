"""The repository's own checkers under ``benchmarks/``: the exact-valued
per-layer count gate (``check_layer_counts.py``), the benchmark's view of
the engine (``e2e/spans.py``), the constructor option census
(``check_option_census.py``) and the tier-1 trajectory's output parser
(``tier1_trajectory.py``); and the reach checks, which fail on a public
name under ``src/repro`` that only tests call and on a ``make_scheme`` key
that only tests pass."""

import ast
import importlib.util
import json
import pathlib
import re
import tomllib

from repro.cc import Cubic
from repro.runtime import make_network
from repro.simulator import Flow

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_CALLABLE = re.compile(r"[\w.]+:(\w+)")
_SCHEME_TABLE = pathlib.Path("src", "repro", "runtime", "build.py")
_YAML_KEY = re.compile(r"[\w-]+:(\s|$)")
_WORD = re.compile(r"[\w-]+")


def _load_benchmark_script(name):
    spec = importlib.util.spec_from_file_location(
        name.replace("/", "_"), _ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layer_counts = _load_benchmark_script("check_layer_counts")
census = _load_benchmark_script("check_option_census")


class TestLayerCounts:
    """``benchmarks/check_layer_counts.py``: the exact-valued gate (the
    traced passes themselves run in CI's perf-smoke job, not here)."""

    def test_committed_file_covers_every_exact_metric_of_every_workload(self):
        contract = json.loads((_ROOT / "BENCHMARK.json").read_text())
        committed = json.loads(layer_counts.COUNTS.read_text())
        names = layer_counts.exact_metrics()
        assert "engine.events_executed" in names
        assert "sim.main_tput_mbps" in names
        assert "runtime.cache.bytes_written" not in names
        assert not any(name.endswith("_s") for name in names)  # no timings
        assert sorted(committed) == sorted(
            w["name"] for w in contract["workloads"])
        for workload, values in committed.items():
            assert sorted(values) == names, workload

    def test_any_difference_is_reported_and_identical_sets_are_not(self):
        committed = json.loads(layer_counts.COUNTS.read_text())
        assert layer_counts.differences(committed, committed) == []
        moved = json.loads(json.dumps(committed))
        moved["wan_churn"]["engine.events_executed"] += 1
        del moved["fluid_crowd"]["sim.seconds"]
        del moved["campaign_grid"]
        lines = layer_counts.differences(moved, committed)
        assert len(lines) == 2 + len(committed["campaign_grid"])
        assert any(line.startswith("wan_churn: engine.events_executed = ")
                   for line in lines)
        assert any("fluid_crowd: sim.seconds = None" in line
                   for line in lines)

    def test_engine_stats_has_every_key_the_benchmark_reads(self):
        """``e2e/spans.py`` sums, peaks and checks these ``engine_stats()``
        keys around every ``TopologyNetwork.run``; without this test a
        missing key would surface only in CI's traced perf-smoke job."""
        spans = _load_benchmark_script("e2e/spans")
        network = make_network(24.0, buffer_ms=100.0, dt=0.002)
        network.add_flow(Flow(cc=Cubic(), prop_rtt=0.05))
        network.run(0.5)
        stats = network.engine_stats()
        read = spans._ENGINE_SUMS + spans._ENGINE_PEAKS + (
            "events_scheduled", "events_executed", "events_pending", "now")
        assert not [key for key in read if key not in stats]
        assert stats["events_executed"] > 0


class TestOptionCensus:
    """``benchmarks/check_option_census.py``: every constructor option is
    set by some caller or explained in ``option_census.json``."""

    def test_the_tree_is_clean(self, capsys):
        assert census.main() == 0
        assert "UNEXPLAINED" not in capsys.readouterr().out

    def test_sees_keyword_position_forwarding_and_inheritance(
            self, tmp_path, monkeypatch):
        unset = census.unset_options()
        # Set by keyword (build.py) and through make_scheme's **overrides
        # (fig26 spells pulse_frequency=); the last is a dataclass field
        # the endpoint assigns, so state, not an option.
        for option in ("Pie.seed", "Nimbus.pulse_frequency",
                       "FlowStats.bytes_sent"):
            assert option not in unset
        # Set by tests only, so unset as far as the census looks.
        assert "Cubic.fast_convergence" in unset
        # A keyword given to a subclass that forwards **options to its
        # base sets the base's option (no class under src/ does this).
        package = tmp_path / "src" / "repro" / "core"
        package.mkdir(parents=True)
        (package / "toy.py").write_text(
            "class Base:\n"
            "    def __init__(self, width=1.0, depth=1.0):\n"
            "        self.width, self.depth = width, depth\n"
            "\n"
            "class Wide(Base):\n"
            "    def __init__(self, **options):\n"
            "        super().__init__(**options)\n"
            "\n"
            "def build():\n"
            "    return Wide(width=2.0)\n")
        monkeypatch.setattr(census, "ROOT", tmp_path)
        toy = census.unset_options(roots=("src",))
        assert "Base.width" not in toy
        assert "Base.depth" in toy

    def test_a_keyword_passed_to_super_init_sets_the_base_option(
            self, tmp_path, monkeypatch):
        """A subclass that passes a keyword up through ``super().__init__``
        sets that option of its base class."""
        package = tmp_path / "src" / "repro" / "core"
        package.mkdir(parents=True)
        (package / "toy.py").write_text(
            "class Base:\n"
            "    def __init__(self, width=1.0, depth=1.0):\n"
            "        self.width, self.depth = width, depth\n"
            "\n"
            "class Narrow(Base):\n"
            "    def __init__(self):\n"
            "        super().__init__(width=0.5)\n"
            "\n"
            "def build():\n"
            "    return Narrow()\n")
        monkeypatch.setattr(census, "ROOT", tmp_path)
        unset = census.unset_options(roots=("src",))
        assert "Base.width" not in unset
        assert "Base.depth" in unset

    def test_a_keyword_the_callee_declares_is_not_forwarded(self):
        """``make_scheme`` forwards ``**overrides`` to ``Nimbus``, but
        ``Topology.add_link(delay=)`` declares ``delay`` and uses it up, so
        it does not set ``Nimbus.delay``: only tests pass that."""
        assert "Nimbus.delay" in census.unset_options()

    def test_a_classmethod_calling_cls_sets_the_class_options(self):
        """``ScenarioSpec.make`` and ``CampaignManifest.from_mapping`` build
        their instance as ``cls(...)``: the only call that sets these."""
        unset = census.unset_options()
        for option in ("ScenarioSpec.label", "ScenarioSpec.params",
                       "CampaignManifest.seeds"):
            assert option not in unset

    def test_a_class_body_does_not_set_its_own_options(self, tmp_path,
                                                       monkeypatch):
        """The keywords a class passes to its parts set *their* options,
        not its own, even when some caller forwards ``**kwargs`` to it (as
        ``make_scheme`` does to ``Nimbus``)."""
        package = tmp_path / "src" / "repro" / "core"
        package.mkdir(parents=True)
        (package / "toy.py").write_text(
            "class Part:\n"
            "    def __init__(self, width=1.0, depth=1.0):\n"
            "        self.width, self.depth = width, depth\n"
            "\n"
            "class Whole:\n"
            "    def __init__(self, width=1.0, depth=1.0):\n"
            "        self.part = Part(width=width, depth=depth)\n"
            "\n"
            "def build(**overrides):\n"
            "    return Whole(**overrides)\n"
            "\n"
            "def deep():\n"
            "    return build(depth=2.0)\n")
        monkeypatch.setattr(census, "ROOT", tmp_path)
        unset = census.unset_options(roots=("src",))
        assert "Whole.width" in unset
        assert "Whole.depth" not in unset  # spelled by deep(), outside
        assert "Part.width" not in unset and "Part.depth" not in unset

    def test_an_unexplained_or_stale_entry_fails(self, tmp_path, monkeypatch,
                                                 capsys):
        allowed = json.loads(census.ALLOW_LIST.read_text())
        dropped = dict(allowed)
        del dropped["Cubic.fast_convergence"]
        dropped["Cubic.init_cwnd_segments"] = "an option that is gone"
        target = tmp_path / "option_census.json"
        target.write_text(json.dumps(dropped))
        monkeypatch.setattr(census, "ALLOW_LIST", target)
        assert census.main() == 1
        out = capsys.readouterr().out
        assert "Cubic.fast_convergence: UNEXPLAINED" in out
        assert "Cubic.init_cwnd_segments: listed in" in out

    def test_every_environment_variable_src_reads_is_listed(
            self, tmp_path, monkeypatch, capsys):
        """A ``REPRO_*`` name spelled as a string under ``src/`` is a knob:
        an unlisted one fails the census, and so does an entry for a
        variable nothing reads any more."""
        assert "env:REPRO_TRACE" in census.environment_variables()
        package = tmp_path / "src" / "repro" / "core"
        package.mkdir(parents=True)
        (package / "toy.py").write_text(
            'import os\n'
            '\n'
            'def depth():\n'
            '    """Reads REPRO_DEPTH (prose does not count)."""\n'
            '    return os.environ.get("REPRO_DEPTH", "")\n')
        target = tmp_path / "option_census.json"
        target.write_text(json.dumps({"env:REPRO_WIDTH": "gone"}))
        monkeypatch.setattr(census, "ROOT", tmp_path)
        monkeypatch.setattr(census, "ALLOW_LIST", target)
        assert census.environment_variables() == ["env:REPRO_DEPTH"]
        assert census.main() == 1
        out = capsys.readouterr().out
        assert "env:REPRO_DEPTH: UNEXPLAINED" in out
        assert "env:REPRO_WIDTH: listed in option_census.json but no " \
            "longer read" in out
        target.write_text(json.dumps({"env:REPRO_DEPTH": "toy knob"}))
        assert census.main() == 0


def _defined(root: pathlib.Path) -> set:
    """Dotted names of the public functions and classes under
    ``root/src/repro`` and the public methods of the public classes."""
    names = set()
    for path, tree in census.sources(root / "src" / "repro"):
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            names.add(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                names.update(f"{module}.{node.name}.{method.name}"
                             for method in node.body
                             if isinstance(method, ast.FunctionDef)
                             and not method.name.startswith("_"))
    return names


def _reached(root: pathlib.Path) -> set:
    """Every identifier outside the tests, and every ``callable`` of a
    ``"module:callable"`` string there or in ``pyproject.toml``'s scripts."""
    pyproject = tomllib.loads((root / "pyproject.toml").read_text())
    strings = list(pyproject["project"]["scripts"].values())
    seen = set()
    for top in census.ROOTS:
        for path, tree in census.sources(root / top):
            if top == "src" and path.name == "__init__.py":
                continue  # re-exports
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    seen.add(node.id)
                elif isinstance(node, ast.Attribute):
                    seen.add(node.attr)
                elif isinstance(node, ast.alias):
                    seen.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.Constant) \
                        and isinstance(node.value, str):
                    strings.append(node.value)
    seen.update(match[1] for match in map(_CALLABLE.fullmatch, strings)
                if match)
    return seen


def unreached(root: pathlib.Path = _ROOT) -> list:
    seen = _reached(root)
    return sorted(name for name in _defined(root)
                  if name.rpartition(".")[2] not in seen)


def scheme_keys(root: pathlib.Path = _ROOT) -> list:
    """The keys of ``make_scheme``'s factory table, read off its source."""
    tree = ast.parse((root / _SCHEME_TABLE).read_text())
    function = next(node for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef)
                    and node.name == "make_scheme")
    table = next(node for node in ast.walk(function)
                 if isinstance(node, ast.Dict))
    return sorted(key.value for key in table.keys)


def _labels(tree: ast.Module) -> set:
    """The ``name = "..."`` constants of class bodies: what a scheme calls
    itself, not a caller asking for it."""
    return {id(statement.value)
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for statement in node.body
            if isinstance(statement, ast.Assign)
            and [ast.unparse(t) for t in statement.targets] == ["name"]}


def _spelled_strings(root: pathlib.Path) -> set:
    """Every string constant of the Python outside the tests (the scheme
    table's own file and class labels excluded), every string value of a
    campaign manifest and every word of a CI workflow's values."""
    spelled = set()
    for top in census.ROOTS:
        for path, tree in census.sources(root / top):
            if path.relative_to(root) == _SCHEME_TABLE:
                continue
            labels = _labels(tree)
            spelled.update(node.value for node in ast.walk(tree)
                           if isinstance(node, ast.Constant)
                           and isinstance(node.value, str)
                           and id(node) not in labels)
    for path in sorted((root / "benchmarks" / "campaigns").glob("*.toml")):
        values = [tomllib.loads(path.read_text())]
        while values:
            value = values.pop()
            if isinstance(value, dict):
                values.extend(value.values())
            elif isinstance(value, list):
                values.extend(value)
            elif isinstance(value, str):
                spelled.add(value)
    for path in sorted((root / ".github" / "workflows").glob("*.yml")):
        for line in path.read_text().splitlines():
            line = line.strip().removeprefix("- ")
            if line.startswith("#"):
                continue
            key = _YAML_KEY.match(line)
            spelled.update(_WORD.findall(line[key.end():] if key else line))
    return spelled


def unreached_scheme_keys(root: pathlib.Path = _ROOT) -> list:
    spelled = _spelled_strings(root)
    return [key for key in scheme_keys(root) if key not in spelled]


class TestReach:
    """Every public function and class under ``src/repro``, and every public
    method of a public class, is reached from outside the tests: its name
    appears in ``src/`` (package ``__init__`` re-exports excluded),
    ``benchmarks/``, ``examples/`` or ``pyproject.toml``'s scripts, as an
    identifier (a ``Name``, an ``Attribute`` attr, an import alias) or as
    the callable of a ``"module:callable"`` string.  ``ALLOWED`` gives each
    exception its reason.

    The check matches names, not bindings, so it cannot see a definition
    whose name another reached definition shares: that is how
    ``DependencyGraph.register`` (named like the CC hook ``register``) and
    the module-level ``depgraph.invalidate`` (named like the graph method)
    hid until they were deleted by hand.

    String registries are reached by key, not by identifier: every key of
    ``make_scheme``'s table must be a scheme something outside the tests
    runs — a whole string constant in ``src/`` (the table's own
    ``runtime/build.py`` excluded), ``benchmarks/`` or ``examples/``, a
    string value of a ``benchmarks/campaigns/*.toml`` manifest, or a word
    of a ``.github/workflows/*.yml`` value.  Only Python is read under
    ``benchmarks/``, so the recorded ``benchmarks/e2e/results/`` never
    count, and a class's own ``name = "..."`` label does not count: it is
    what the key builds, not a caller asking for it.  Spellings collide
    here too: Table 1's traffic-class keys ``"reno"`` and ``"pcc-vivace"``
    made two scheme names that no driver passed look reached.
    ``EXPERIMENT_INDEX`` stays out of this check: every key there is a
    paper artefact's runner id by design, reached through the CLI rather
    than by a string elsewhere."""

    ALLOWED = {
        f"repro.experiments.selftest.{name}":
            "executor test fixture, resolved by dotted path in "
            "tests/test_executor_robust.py"
        for name in ("sleepy_run", "hard_exit")}

    def test_every_public_name_is_reached_or_explained(self):
        assert unreached() == sorted(self.ALLOWED)

    def test_sees_identifiers_imports_and_callable_strings(self, tmp_path):
        files = {
            "pyproject.toml": '[project.scripts]\ntool = "repro.m:script"\n',
            "src/repro/__init__.py": "from .m import reexported\n",
            "src/repro/m.py": (
                "def script(): pass\n"
                "def reexported(): pass\n"
                "def by_string(): pass\n"
                "def _private(): pass\n"
                "class Used:\n"
                "    def by_attribute(self): pass\n"
                "    def by_test_only(self): pass\n"
                "    def _hook(self): pass\n"),
            "benchmarks/b.py": "from repro.m import Used\nUsed().by_attribute()\n",
            "examples/e.py": 'TARGET = "repro.m:by_string"\n',
            "tests/test_m.py": "from repro.m import Used\nUsed().by_test_only()\n",
        }
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text(text)
        assert unreached(tmp_path) == ["repro.m.Used.by_test_only",
                                       "repro.m.reexported"]

    def test_every_scheme_key_is_passed_outside_the_tests(self):
        assert unreached_scheme_keys() == []

    def test_sees_manifests_ci_steps_and_driver_defaults(self, tmp_path):
        keys = ("manifest", "ci-step", "driver-default", "labelled",
                "test-only")
        files = {
            "src/repro/runtime/build.py": (
                "def make_scheme(name, mu):\n"
                "    factories = {"
                + "".join(f"{key!r}: None, " for key in keys) + "}\n"
                "    return factories[name]\n"),
            "src/repro/cc/toy.py": "class Toy:\n    name = 'labelled'\n",
            "src/repro/experiments/d.py": "SCHEMES = ('driver-default',)\n",
            "benchmarks/campaigns/m.toml": (
                '[[experiment]]\n[experiment.axes]\nschemes = ["manifest"]\n'),
            ".github/workflows/ci.yml": (
                "jobs:\n  smoke:\n    steps:\n"
                "      # scheme=test-only is a comment, not a step\n"
                "      - run: |\n"
                "          runner fig01 --set scheme=ci-step\n"),
            "tests/test_toy.py": "SCHEMES = ('test-only', 'labelled')\n",
        }
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text(text)
        assert scheme_keys(tmp_path) == sorted(keys)
        assert unreached_scheme_keys(tmp_path) == ["labelled", "test-only"]


class TestTier1Trajectory:
    """``benchmarks/tier1_trajectory.py``: its reading of pytest's output
    (the runs themselves take minutes and are not repeated here)."""

    trajectory = _load_benchmark_script("tier1_trajectory")

    def test_parses_the_summary_line_and_the_durations_table(self):
        output = (
            "....x.....                                      [100%]\n"
            "===================== slowest 20 durations =====================\n"
            "44.02s call     benchmarks/test_table1_classification.py::"
            "test_table1_classification\n"
            "0.51s setup    tests/test_trace.py::test_rtt_samples_positive\n"
            "981 passed, 6 xfailed, 2 warnings in 367.12s (0:06:07)\n")
        parsed = self.trajectory.parse_summary(output)
        assert parsed["passed"] == 981 and parsed["xfailed"] == 6
        assert "xpassed" not in parsed and "failed" not in parsed
        assert parsed["slowest"] == [
            {"s": 44.02, "when": "call",
             "test": "benchmarks/test_table1_classification.py::"
                     "test_table1_classification"},
            {"s": 0.51, "when": "setup",
             "test": "tests/test_trace.py::test_rtt_samples_positive"}]
        failed = self.trajectory.parse_summary(
            "1 failed, 40 passed, 1 xpassed in 3.20s\n")
        assert failed == {"failed": 1, "passed": 40, "xpassed": 1,
                          "slowest": []}
