"""Option census: which constructor options does anything actually set?

For every constructor parameter and dataclass field with a default under
``src/repro/{analysis,cc,core,runtime,simulator,traffic}``, look for a
call site under ``src/``, ``benchmarks/`` or ``examples/`` (tests do not
count) that sets it — by keyword, by position, or through a ``**kwargs``
the class is called with, in which case the option counts as set when
some call or dict literal in the scanned trees spells its name outside the
class's own body (the keywords a class passes to its parts do not set its
own options) and the callee does not declare that parameter itself (a
keyword the callee declares is used up at that call:
``add_link(delay=)`` does not set ``Nimbus.delay``); a classmethod's
``cls(...)`` is a call of its class.  Options nobody sets
are printed, and so is every environment variable ``src/`` reads (each
string constant under ``src/`` that is a whole ``REPRO_[A-Z_]+`` name,
listed as ``env:REPRO_...``); exit 1 if one of them is missing from
``benchmarks/option_census.json``, the allow-list giving each kept option
or variable its one reason, or if the list names an option that is set or
gone or a variable nothing reads any more.  Pure ``ast``: nothing under
``src/`` is imported.
"""

from __future__ import annotations

import ast
import json
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGES = ("analysis", "cc", "core", "runtime", "simulator", "traffic")
ROOTS = ("src", "benchmarks", "examples")
ALLOW_LIST = ROOT / "benchmarks" / "option_census.json"
ENV_NAME = re.compile(r"REPRO_[A-Z_]+")


def sources(directory: pathlib.Path):
    """``(path, module tree)`` for every ``.py`` file under ``directory``."""
    for path in sorted(directory.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _base_names(cls: ast.ClassDef) -> list:
    return [ast.unparse(base).rpartition(".")[2] for base in cls.bases]


def declared_options() -> tuple:
    """``{class: [option, ...]}`` in positional order (``None`` for a
    parameter that is required, private or state) and ``{class: [base
    name, ...]}``."""
    options, bases = {}, {}
    trees = [tree for package in PACKAGES
             for _, tree in sources(ROOT / "src" / "repro" / package)]
    # A dataclass field the engine assigns after construction
    # (``flow.stats.bytes_sent += ...``) is state, not an option.
    state = {node.attr for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Store)
             and ast.unparse(node.value) != "self"}
    classes = (node for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef))
    for cls in classes:
        bases[cls.name] = _base_names(cls)
        init = next((n for n in cls.body if isinstance(n, ast.FunctionDef)
                     and n.name == "__init__"), None)
        if init is not None:
            args = init.args
            required = len(args.args) - 1 - len(args.defaults)
            names = [a.arg for a in args.args[1 + required:]]
            names += [a.arg for a, default in zip(args.kwonlyargs,
                                                  args.kw_defaults) if default]
        elif any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
            fields = [n for n in cls.body if isinstance(n, ast.AnnAssign)]
            required = sum(1 for n in fields if not n.value)
            names = ["_" if n.target.id in state else n.target.id
                     for n in fields if n.value]
        else:
            continue
        names = [None if n.startswith("_") else n for n in names]
        if any(names) and not cls.name.startswith("_"):
            options[cls.name] = [None] * required + names
    return options, bases


def _owners(tree) -> dict:
    """``{node: names of the classes whose body holds it}`` for every node
    of ``tree``."""
    owners, stack = {}, [(tree, frozenset())]
    while stack:
        node, held_by = stack.pop()
        owners[node] = held_by
        if isinstance(node, ast.ClassDef):
            held_by = held_by | {node.name}
        stack.extend((child, held_by) for child in ast.iter_child_nodes(node))
    return owners


def _parameters(trees) -> dict:
    """``{name: [parameter names of each function, method or class
    ``__init__`` so named, ...]}`` over ``trees``."""
    declared = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                function = next((n for n in node.body
                                 if isinstance(n, ast.FunctionDef)
                                 and n.name == "__init__"), None)
                if function is None:
                    continue
            elif isinstance(node, ast.FunctionDef):
                function = node
            else:
                continue
            args = function.args
            declared.setdefault(node.name, []).append(
                {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs})
    return declared


def _calls(tree):
    """``(callee name, call)`` pairs; ``super().__init__(...)`` is a call of
    each base of the enclosing class, and ``cls(...)`` (a classmethod
    building an instance) a call of the class itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield getattr(node.func, "id",
                          getattr(node.func, "attr", None)), node
        elif isinstance(node, ast.ClassDef):
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                callee = ast.unparse(call.func)
                if callee == "super().__init__":
                    for base in _base_names(node):
                        yield base, call
                elif callee == "cls":
                    yield node.name, call


def unset_options(roots=ROOTS) -> list:
    """``["Class.option", ...]`` that no call site under ``roots`` sets."""
    options, bases = declared_options()
    set_here = {name: set() for name in options}
    # name -> the sets of classes whose body holds a spelling of it
    forwarded, spelled = set(), {}
    trees = [tree for root in roots for _, tree in sources(ROOT / root)]
    declared = _parameters(trees)
    for tree in trees:
        for node, held_by in _owners(tree).items():
            if isinstance(node, ast.Dict):
                names = [k.value for k in node.keys
                         if isinstance(k, ast.Constant)]
            elif isinstance(node, ast.Call):
                callee = getattr(node.func, "id",
                                 getattr(node.func, "attr", None))
                # A keyword that every definition so named declares is
                # used up at this call, not forwarded.
                names = [k.arg for k in node.keywords if k.arg and not (
                    callee in declared
                    and all(k.arg in params for params in declared[callee]))]
            else:
                continue
            for name in names:
                spelled.setdefault(name, set()).add(held_by)
        for callee, call in _calls(tree):
            keywords = {k.arg for k in call.keywords}
            if callee in options:
                set_here[callee].update(options[callee][:len(call.args)])
            # A keyword given to a subclass may be meant for a base.
            lineage = [callee]
            for cls in lineage:
                lineage.extend(bases.get(cls, ()))
                if cls in options:
                    set_here[cls].update(keywords)
                    if None in keywords:
                        forwarded.add(cls)
    def spelled_outside(name: str, cls: str) -> bool:
        return any(cls not in held_by for held_by in spelled.get(name, ()))

    return sorted(
        f"{cls}.{name}" for cls, names in options.items() for name in names
        if name and name not in set_here[cls]
        and not (cls in forwarded and spelled_outside(name, cls)))


def environment_variables() -> list:
    """``["env:REPRO_...", ...]`` for every string constant under ``src/``
    that is a whole environment-variable name: the knobs ``src/`` reads."""
    return sorted({f"env:{node.value}"
                   for _, tree in sources(ROOT / "src")
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Constant)
                   and isinstance(node.value, str)
                   and ENV_NAME.fullmatch(node.value)})


def main() -> int:
    allowed = json.loads(ALLOW_LIST.read_text(encoding="utf-8"))
    unset = unset_options() + environment_variables()
    for option in unset:
        print(f"{option}: {allowed.get(option, 'UNEXPLAINED')}")
    stale = sorted(set(allowed) - set(unset))
    for option in stale:
        print(f"{option}: listed in {ALLOW_LIST.name} but set or gone"
              if not option.startswith("env:") else
              f"{option}: listed in {ALLOW_LIST.name} but no longer read")
    return 1 if stale or not set(unset) <= set(allowed) else 0


if __name__ == "__main__":
    sys.exit(main())
