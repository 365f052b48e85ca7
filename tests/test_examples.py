"""Every script under ``examples/`` still runs against the drivers' API.

The examples are callers nothing else exercises: an API reshape (a case
returning the payload instead of a flat dict, say) must fail here rather
than on a reader's first run.  Each example's ``main()`` runs unmodified;
only the driver entry points it calls are forced down to toy scale.
"""

from __future__ import annotations

import importlib
import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: example -> [(module, entry point, toy-scale keyword overrides)].
TOY_CALLS = {
    "copa_comparison": [
        ("repro.experiments.fig23_copa_cbr", "run", dict(duration=6.0)),
        ("repro.experiments.fig24_copa_rtt", "run", dict(duration=6.0))],
    "elasticity_probe": [
        ("repro.experiments.table1_classification", "classify",
         dict(duration=12.0))],
    "multiple_nimbus_flows": [
        ("repro.experiments.fig16_multiflow", "run",
         dict(stagger=2.0, flow_duration=8.0))],
    "quickstart": [],
    "wan_cross_traffic": [
        ("repro.experiments.fig09_wan", "run", dict(duration=6.0))],
}


def test_every_example_is_covered():
    assert {path.stem for path in EXAMPLES.glob("*.py")} == set(TOY_CALLS)


@pytest.mark.parametrize("example", sorted(TOY_CALLS))
def test_example_runs_at_toy_scale(example, monkeypatch, capsys):
    for module_name, name, toy in TOY_CALLS[example]:
        module = importlib.import_module(module_name)
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name,
            lambda *args, _real=real, _toy=toy, **kwargs:
                _real(*args, **{**kwargs, **_toy}))
    namespace = runpy.run_path(str(EXAMPLES / f"{example}.py"))
    if "DURATION" in namespace:          # quickstart simulates in-line
        namespace["main"].__globals__["DURATION"] = 16.0
    namespace["main"]()
    assert capsys.readouterr().out.strip()
