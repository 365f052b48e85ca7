"""Golden payload digests: the bit-identity A/B check, committed.

Every scenario below is one reduced-scale driver call whose payload is
hashed over a *canonical walk* (repr of Python scalars; dtype / shape /
``tobytes()`` of arrays; class name plus state of everything else) rather
than over pickle bytes, so a digest depends on what was computed and not on
pickle framing.  ``benchmarks/golden.json`` holds the digests recorded at
the commit that last changed a number on purpose; the test recomputes them
with the result cache off and ``REPRO_AUDIT=1``, so each golden scenario
doubles as a per-hop conservation check.

A refactor must pass this file unedited.  A change that *means* to move a
number explains itself in ``CHANGES.md`` and re-records::

    python tests/test_golden.py --rebless

which refuses (exit 2) unless ``CHANGES.md`` carries a line the committed
``HEAD`` does not.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import importlib
import json
import os
import subprocess
import sys
from collections import deque
from typing import Any, Callable, Dict, List, Optional

import numpy as np

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

GOLDEN_PATH = os.path.join(_ROOT, "benchmarks", "golden.json")

#: Environment every golden scenario is computed under.
GOLDEN_ENV = {"REPRO_NO_CACHE": "1", "REPRO_AUDIT": "1",
              "REPRO_BENCH_WORKERS": "1"}


def _internet_paths(duration: float, dt: float, seed: int) -> Any:
    """fig18 over one WAN-mix and one elastic-cross profile (two hops,
    whole-path transit flows and access-only cross flows)."""
    from repro.experiments import internet_paths

    return internet_paths.run(profiles=internet_paths.DEFAULT_PROFILES[3:5],
                              schemes=("nimbus",), duration=duration, dt=dt,
                              seed=seed)


#: The reduced fig16 run: three staggered ``multi_flow=True`` flows, the only
#: golden scenario in which pulsers are elected, checked for conflict and
#: demoted (§6).
_FIG16_KWARGS = dict(n_flows=3, stagger=3.0, flow_duration=24.0, dt=0.004,
                     seed=1)


def _multiflow_detector(**kwargs: Any) -> Any:
    """What each flow's detector saw and did during the fig16 run: every
    (time, eta) it evaluated and its (time, role, mode) at each change."""
    from repro.core.nimbus import Nimbus
    from repro.experiments import fig16_multiflow

    class Observed(Nimbus):
        def on_control_tick(self, now: float, dt: float) -> None:
            super().on_control_tick(now, dt)
            if self.timeline[-1][1:] != (self.role, self.mode):
                self.timeline.append((now, self.role, self.mode))

    observed: List[Observed] = []

    def make(**nimbus_kwargs: Any) -> Observed:
        cc = Observed(**nimbus_kwargs)
        cc.timeline = [(0.0, cc.role, cc.mode)]
        observed.append(cc)
        return cc

    fig16_multiflow.Nimbus = make
    try:
        fig16_multiflow.run(**kwargs)
    finally:
        fig16_multiflow.Nimbus = Nimbus
    return {f"nimbus{i}": {"eta_history": cc.eta_history,
                           "timeline": cc.timeline}
            for i, cc in enumerate(observed)}


#: Packages whose instances must never be reachable from a payload.
SIMULATOR_PACKAGES = ("repro.simulator.", "repro.cc.", "repro.core.",
                      "repro.traffic.")

#: name -> ("module:function" or callable, kwargs).  Reduced scale: the
#: whole table recomputes in ~20 s.
SCENARIOS: Dict[str, tuple] = {
    "fig09_wan[nimbus]": ("repro.experiments.fig09_wan:run_case", dict(
        scheme="nimbus", duration=8.0, dt=0.004, seed=1)),
    "fig09_wan[cubic]": ("repro.experiments.fig09_wan:run_case", dict(
        scheme="cubic", duration=8.0, dt=0.004, seed=1)),
    "fig13": ("repro.experiments.fig13_load:run", dict(
        loads=(0.9,), pulse_sizes=(0.25,), baselines=("vegas",),
        duration=6.0, dt=0.004, seed=1)),
    "fig15": ("repro.experiments.fig15_rtt_sweep:run", dict(
        rtt_ratios=(2.0,), categories=("elastic", "poisson"),
        duration=8.0, dt=0.004, seed=0)),
    "fig09_fluid": ("repro.experiments.fig09_fluid:run", dict(
        schemes=("cubic",), duration=12.0, dt=0.004, seed=1)),
    "parking_lot": ("repro.experiments.parking_lot:run_case", dict(
        scheme="nimbus", hops=3, cross_flows=3, buffer_ms=40.0,
        duration=10.0, dt=0.004, seed=2)),
    "link_flap": ("repro.experiments.link_flap:run_case", dict(
        scheme="nimbus", period=2.0, drop_queued=1, phase_duration=2.0,
        duration=12.0, dt=0.004, seed=3)),
    "reroute": ("repro.experiments.reroute:run_case", dict(
        scheme="nimbus", period=2.0, convergence_ms=50.0,
        phase_duration=2.0, duration=12.0, dt=0.004, seed=4)),
    "internet_paths": (_internet_paths, dict(
        duration=8.0, dt=0.004, seed=5)),
    "fig16": ("repro.experiments.fig16_multiflow:run", _FIG16_KWARGS),
    "multiflow_detector": (_multiflow_detector, _FIG16_KWARGS),
    "fig17": ("repro.experiments.fig17_multiflow_cross:run", dict(
        n_flows=2, phase_duration=12.0, warmup=10.0, dt=0.004, seed=2)),
    "fig04": ("repro.experiments.fig04_pulse_response:run", dict(
        duration=12.0, dt=0.004)),
    # One toy-scale ``run(...)`` per front-end that simulates more than
    # once, so that every registered multi-simulation driver is pinned.
    # Integral floats (``4.0``, ``2.0``) are deliberate: a spec's
    # canonical form turns them into ints, and a case that echoes one
    # into a label or an ``extra`` has to hand back the float.
    "fig01": ("repro.experiments.fig01_motivation:run", dict(
        schemes=("nimbus", "cubic"), phase_duration=4.0, dt=0.004)),
    "fig05": ("repro.experiments.fig05_fft:run", dict(
        duration=8.0, dt=0.004)),
    "fig06": ("repro.experiments.fig06_elasticity_cdf:run", dict(
        elastic_fractions=(0.0, 0.5, 1.0), duration=9.0, dt=0.004)),
    "fig08": ("repro.experiments.fig08_time_varying:run", dict(
        schemes=("nimbus", "cubic"), schedule=((16, 1), (32, 0)),
        phase_duration=6.0, dt=0.004)),
    "fig10": ("repro.experiments.fig10_copa_drop:run", dict(
        elastic_start=1.0, duration=13.0, dt=0.004)),
    "fig11": ("repro.experiments.fig11_video:run", dict(
        schemes=("nimbus", "vegas"), duration=8.0, dt=0.004)),
    "fig14": ("repro.experiments.fig14_accuracy_vs_copa:run", dict(
        inelastic_shares=(0.5,), inelastic_kinds=("cbr",),
        rtt_ratios=(4.0,), duration=10.0, dt=0.004)),
    "fig20": ("repro.experiments.internet_paths:run_appendix_a", dict(
        duration=8.0, dt=0.004)),
    "fig21": ("repro.experiments.fig21_fct:run", dict(
        schemes=("cubic",), duration=6.0, dt=0.004, seed=2)),
    "fig22": ("repro.experiments.fig22_bbr_compete:run", dict(
        buffer_bdp_multipliers=(0.5, 2.0), schemes=("nimbus",),
        duration=8.0, dt=0.004)),
    "fig23": ("repro.experiments.fig23_copa_cbr:run", dict(
        cbr_fractions=(0.25,), duration=8.0, dt=0.004)),
    "fig24": ("repro.experiments.fig24_copa_rtt:run", dict(
        rtt_ratios=(4.0,), duration=9.0, dt=0.004)),
    "fig25": ("repro.experiments.fig25_multifactor:run", dict(
        pulse_sizes=(0.125, 0.25), nimbus_shares=(0.5,), duration=10.0,
        dt=0.004)),
    "fig26": ("repro.experiments.fig26_vivace_pulse:run", dict(
        pulse_frequencies=(5.0, 2.0), duration=9.0, dt=0.004)),
    "appE": ("repro.experiments.appE_buffer_aqm:run", dict(
        buffer_bdp_multipliers=(2.0,), categories=("mix",),
        pie_targets_bdp=(0.5,), duration=10.0, dt=0.004)),
    "table1": ("repro.experiments.table1_classification:run", dict(
        traffic_classes=("cubic", "app-limited", "constant-stream"),
        duration=12.0, dt=0.004)),
    # The two single-simulation front-ends that build their result from a
    # live recorder (fig16 / fig17 are pinned above).
    "fig03": ("repro.experiments.fig03_self_inflicted:run", dict(
        phase_duration=4.0, dt=0.004)),
    "fig12": ("repro.experiments.fig12_eta_tracking:run", dict(
        duration=14.0, truth_window=2.0, dt=0.004, seed=1)),
}


# ---------------------------------------------------------------------- #
# Canonical walk
# ---------------------------------------------------------------------- #
def _state_of(obj: Any) -> Dict[str, Any]:
    """Attribute state of an arbitrary object (``__dict__`` + slots)."""
    state = dict(getattr(obj, "__dict__", {}))
    for klass in type(obj).__mro__:
        for name in getattr(klass, "__slots__", ()):
            if name not in ("__dict__", "__weakref__") and hasattr(obj, name):
                state.setdefault(name, getattr(obj, name))
    return state


def _walk(obj: Any, update: Callable[[bytes], None], seen: Dict[int, int],
          keep: List[Any]) -> None:
    """Feed a canonical byte description of ``obj`` to ``update``."""
    def tag(text: str) -> None:
        update(text.encode("utf-8") + b"\x00")

    if isinstance(obj, np.generic):
        obj = np.asarray(obj)
    if isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            tag(f"objarray{obj.shape}")
            _walk(obj.tolist(), update, seen, keep)
        else:
            tag(f"ndarray:{obj.dtype.str}:{obj.shape}")
            update(np.ascontiguousarray(obj).tobytes())
    elif obj is None or isinstance(obj, (bool, int, float, str)):
        tag(f"{type(obj).__name__}:{obj!r}")
    elif isinstance(obj, (list, tuple, deque)):
        tag(f"{type(obj).__name__}[{len(obj)}]")
        for item in obj:
            _walk(item, update, seen, keep)
    elif isinstance(obj, dict):
        tag(f"dict[{len(obj)}]")
        for key, value in obj.items():
            _walk(key, update, seen, keep)
            _walk(value, update, seen, keep)
    else:
        # An arbitrary object: class name + attribute state, with shared
        # and cyclic references written as the index of their first visit.
        if id(obj) in seen:
            tag(f"ref:{seen[id(obj)]}")
            return
        seen[id(obj)] = len(seen)
        keep.append(obj)  # ids stay unique while the walk runs
        klass = type(obj)
        tag(f"object:{klass.__module__}.{klass.__qualname__}")
        if dataclasses.is_dataclass(obj):
            state = {f.name: getattr(obj, f.name)
                     for f in dataclasses.fields(obj)}
        else:
            state = _state_of(obj)
            if not state and not hasattr(obj, "__dict__") \
                    and not hasattr(klass, "__slots__"):
                raise TypeError(f"cannot canonicalise {klass!r}")
        _walk(dict(sorted(state.items())), update, seen, keep)


def canonical_digest(payload: Any) -> str:
    """sha256 over the canonical walk of ``payload``."""
    digest = hashlib.sha256()
    _walk(payload, digest.update, {}, [])
    return digest.hexdigest()


# ---------------------------------------------------------------------- #
# Compute / compare / rebless
# ---------------------------------------------------------------------- #
@functools.lru_cache(maxsize=None)
def payload_of(name: str) -> Any:
    """Run one golden scenario under :data:`GOLDEN_ENV`, once per process."""
    return run_under_golden_env(*SCENARIOS[name])


def run_under_golden_env(target: Any, kwargs: dict) -> Any:
    """``target(**kwargs)`` (a callable or ``"module:function"``) with the
    cache off and the audit on, as every golden scenario runs."""
    saved = {key: os.environ.get(key) for key in GOLDEN_ENV}
    os.environ.update(GOLDEN_ENV)
    try:
        if isinstance(target, str):
            module, _, attr = target.partition(":")
            target = getattr(importlib.import_module(module), attr)
        return target(**kwargs)
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def compute(name: str) -> str:
    """Digest of one golden scenario's payload."""
    return canonical_digest(payload_of(name))


def simulator_objects(payload: Any) -> List[str]:
    """Classes of reachable objects that belong to the simulator.

    A payload is data: it is cached, shipped between processes and loaded
    by code that never ran the scenario, so an instance of anything under
    :data:`SIMULATOR_PACKAGES` (a ``Flow``, a cc algorithm, a detector) in
    it means a driver leaked its network.
    """
    reached: List[Any] = []
    _walk(payload, lambda _: None, {}, reached)
    return sorted({f"{type(obj).__module__}.{type(obj).__qualname__}"
                   for obj in reached
                   if type(obj).__module__.startswith(SIMULATOR_PACKAGES)})


def load_golden() -> Dict[str, str]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)["digests"]


def changes_line_added(root: str = _ROOT) -> bool:
    """Whether ``CHANGES.md`` has a line the committed ``HEAD`` lacks."""
    try:
        diff = subprocess.run(
            ["git", "diff", "--numstat", "HEAD", "--", "CHANGES.md"],
            cwd=root, capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return False
    fields = diff.split()
    return bool(fields) and fields[0].isdigit() and int(fields[0]) > 0


def rebless(path: str = GOLDEN_PATH,
            explained: Optional[Callable[[], bool]] = None) -> int:
    """Re-record every digest and print one line per digest that moved (or
    is new) plus the count that did not; 2 (file untouched) without a
    CHANGES line."""
    explained = changes_line_added if explained is None else explained
    if not explained():
        print("refusing to rebless: add a CHANGES.md line explaining the "
              "numeric change first (none found relative to HEAD)",
              file=sys.stderr)
        return 2
    try:
        with open(path, encoding="utf-8") as handle:
            before = json.load(handle)["digests"]
    except (OSError, ValueError, KeyError):
        before = {}
    digests = {name: compute(name) for name in SCENARIOS}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"schema": 1, "env": GOLDEN_ENV, "digests": digests},
                  handle, indent=2, sort_keys=True)
        handle.write("\n")
    moved = [name for name in digests if before.get(name) != digests[name]]
    for name in moved:
        print(f"{'moved' if name in before else 'added'} {name}")
    print(f"{len(digests) - len(moved)} unchanged; blessed {len(digests)} "
          f"digests -> {path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rebless", action="store_true",
                        help="re-record benchmarks/golden.json (needs a new "
                             "CHANGES.md line)")
    args = parser.parse_args(argv)
    if args.rebless:
        return rebless()
    golden = load_golden()
    stale = [name for name in SCENARIOS if compute(name) != golden.get(name)]
    for name in stale:
        print(f"MISMATCH {name}")
    return 1 if stale else 0


# ---------------------------------------------------------------------- #
# Tests
# ---------------------------------------------------------------------- #
try:
    import pytest
except ImportError:  # running the CLI without the test extras
    pytest = None

if pytest is not None:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_golden_digest(name):
        assert compute(name) == load_golden()[name], (
            f"{name}: payload differs from benchmarks/golden.json — a "
            f"refactor must not move it; a deliberate numeric change adds "
            f"a CHANGES.md line and runs tests/test_golden.py --rebless")

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_payloads_hold_data_not_simulator_objects(name):
        assert simulator_objects(payload_of(name)) == []

    def test_simulator_object_guard_sees_through_containers():
        from repro.cc import Cubic
        from repro.simulator import Flow

        flow = Flow(cc=Cubic(), prop_rtt=0.05, name="leak")
        found = simulator_objects({"data": [("row", flow)]})
        assert "repro.simulator.endpoint.Flow" in found
        assert "repro.cc.cubic.Cubic" in found  # flow.cc, an instance
        # A class is not data either: it has no canonical form.
        with pytest.raises(TypeError):
            canonical_digest({"named": Cubic})

    def test_golden_file_covers_exactly_the_scenarios():
        assert sorted(load_golden()) == sorted(SCENARIOS)

    def test_rebless_refuses_without_a_changes_line(tmp_path, capsys):
        target = tmp_path / "golden.json"
        target.write_text("untouched")
        assert rebless(str(target), explained=lambda: False) == 2
        assert target.read_text() == "untouched"
        assert "CHANGES.md" in capsys.readouterr().err

    def test_rebless_names_what_moved(tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sys.modules[__name__], "SCENARIOS", {
            "rebless-toy": (lambda: {"x": 1}, {})})
        target = tmp_path / "golden.json"
        target.write_text(json.dumps({"digests": {"rebless-toy": "stale"}}))
        assert rebless(str(target), explained=lambda: True) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "moved rebless-toy"
        assert out[1].startswith("0 unchanged; blessed 1 digests")
        assert rebless(str(target), explained=lambda: True) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 and out[0].startswith("1 unchanged;")

    def test_changes_line_check_reads_git(tmp_path):
        """No repository (or a clean CHANGES.md) is "not explained"."""
        assert changes_line_added(str(tmp_path)) is False

    def test_canonical_digest_is_value_based():
        a = {"x": np.arange(3.0), "y": [1, 2.5, "s"], "z": None}
        b = {"x": np.arange(3.0), "y": [1, 2.5, "s"], "z": None}
        assert canonical_digest(a) == canonical_digest(b)
        b["x"] = b["x"].astype(np.float32)
        assert canonical_digest(a) != canonical_digest(b)
        assert canonical_digest([1]) != canonical_digest((1,))
        assert canonical_digest(1) != canonical_digest(1.0)


if __name__ == "__main__":
    sys.exit(main())
