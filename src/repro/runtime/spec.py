"""Hashable description of one simulation scenario.

A :class:`ScenarioSpec` pins down everything that determines a simulation's
outcome from the caller's side: the driver function (as an importable
``"module:callable"`` dotted path, so specs survive pickling into worker
processes) and its keyword arguments in a canonical, order-independent
form.  Two specs built from the same function and equivalent parameters —
regardless of dict ordering or list-vs-tuple spelling — compare equal and
hash identically, which is what makes the on-disk result cache sound.

Structured parameters are supported through init-only dataclasses: a tuple
of :class:`~repro.runtime.build.LinkSpec` hops, for example, canonicalises
field by field, so multi-hop topology scenarios cache and batch exactly
like scalar-parameter ones.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Tuple

#: Parameter value types a spec accepts.  Anything outside this set has no
#: canonical, process-independent representation, so it is rejected rather
#: than silently producing unstable cache keys.
_SCALARS = (str, int, float, bool, type(None))


def canonicalize(value: Any) -> Any:
    """Reduce ``value`` to a hashable canonical form.

    Lists and tuples become tuples; mappings become key-sorted tuples of
    pairs tagged with ``"!map"`` so ``{"a": 1}`` cannot collide with
    ``(("a", 1),)``; dataclass instances become ``("!dataclass", class
    path, fields)`` and are rebuilt by :func:`decanonicalize`; scalars pass
    through.  Raises ``TypeError`` for anything else (arbitrary objects,
    functions, arrays) — callers should pass the parameters that *build*
    those objects instead.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        # Normalise -0.0 and integral floats so 2.0 and 2 key identically
        # (drivers accept either spelling from --set overrides).
        if math.isfinite(value) and value == int(value):
            return int(value)
        return value
    if isinstance(value, (list, tuple)):
        return tuple(canonicalize(v) for v in value)
    if isinstance(value, Mapping):
        if any(not isinstance(k, str) for k in value):
            raise TypeError(
                f"mapping parameters need string keys to round-trip, "
                f"got keys {sorted(map(repr, value))}")
        items = sorted((k, canonicalize(v)) for k, v in value.items())
        return ("!map",) + tuple(items)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = dataclasses.fields(value)
        if any(not f.init for f in fields):
            raise TypeError(
                f"dataclass {type(value).__name__} has non-init fields and "
                f"cannot round-trip through a ScenarioSpec")
        cls = type(value)
        return ("!dataclass", f"{cls.__module__}:{cls.__qualname__}",
                tuple((f.name, canonicalize(getattr(value, f.name)))
                      for f in fields))
    raise TypeError(
        f"ScenarioSpec parameters must be scalars/tuples/dicts/dataclasses, "
        f"got {type(value).__name__}: {value!r}")


def decanonicalize(value: Any) -> Any:
    """Invert :func:`canonicalize` so specs can call their targets.

    Tagged maps become dicts again and tagged dataclasses are rebuilt from
    their class path; plain tuples stay tuples (every driver accepts
    ``Iterable`` where it accepts ``list``).
    """
    if isinstance(value, tuple):
        if value[:1] == ("!map",):
            return {name: decanonicalize(v) for name, v in value[1:]}
        if len(value) == 3 and value[0] == "!dataclass":
            module_name, _, qualname = value[1].partition(":")
            cls = importlib.import_module(module_name)
            for part in qualname.split("."):
                cls = getattr(cls, part)
            return cls(**{name: decanonicalize(v) for name, v in value[2]})
        return tuple(decanonicalize(v) for v in value)
    return value


def dotted_path(fn: Callable) -> str:
    """The ``"module:qualname"`` path under which ``fn`` can be re-imported."""
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<" in qualname or "." in qualname:
        raise TypeError(
            f"need a module-level function for scenario execution, got {fn!r}")
    return f"{module}:{qualname}"


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-described simulation: target function + parameters.

    Attributes:
        fn: Importable dotted path ``"package.module:function"``.
        params: Canonicalised keyword arguments, key-sorted.
        label: Free-form display label (not part of the identity hash).
    """

    fn: str
    params: Tuple[Tuple[str, Any], ...] = ()
    label: str = field(default="", compare=False)

    @classmethod
    def make(cls, fn: Callable | str, label: str = "",
             **params: Any) -> "ScenarioSpec":
        """Build a spec from a callable (or dotted path) and kwargs."""
        path = fn if isinstance(fn, str) else dotted_path(fn)
        if ":" not in path:
            raise ValueError(f"dotted path must be 'module:callable', got {path!r}")
        canonical = tuple(sorted(
            (name, canonicalize(value)) for name, value in params.items()))
        return cls(fn=path, params=canonical, label=label or path.split(":")[1])

    def kwargs(self) -> Dict[str, Any]:
        """The keyword arguments to call the target with.

        Sequence parameters come back as tuples — every driver accepts
        ``Iterable``/``Sequence``, so this is transparent — while tagged
        maps and dataclasses are rebuilt as real objects.
        """
        return {name: decanonicalize(value) for name, value in self.params}

    def resolve(self) -> Callable:
        """Import and return the target callable."""
        module_name, _, attr = self.fn.partition(":")
        module = importlib.import_module(module_name)
        target = getattr(module, attr, None)
        if not callable(target):
            raise AttributeError(
                f"{self.fn!r} does not resolve to a callable")
        return target

    @property
    def module(self) -> str:
        """Module part of the dotted target path.

        This is the scope of the spec's cache key: the result cache keys
        each entry by the dependency-aware digest of this module (see
        :mod:`repro.runtime.depgraph`).
        """
        return self.fn.partition(":")[0]

    def spec_hash(self) -> str:
        """Stable content hash of (fn, params) — the cache key core."""
        payload = repr((self.fn, self.params)).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        args = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.label or self.fn}({args})"


def expand_grid(fn: Callable | str, base: Mapping[str, Any],
                axes: Mapping[str, Any]) -> Tuple[ScenarioSpec, ...]:
    """Cross-product expansion of sweep axes into a batch of specs.

    The one grid expander: ``runner sweep`` and campaign manifests
    (:meth:`repro.runtime.manifest.CampaignManifest.expand`) both call it.
    ``axes`` maps parameter name -> iterable of values; ``base`` holds the
    parameters common to every point.  Returns one spec per point of the
    cross product, in row-major order of the axes as given, labelled
    ``axis=value,...`` with values in canonical spelling (``2.0`` prints as
    ``2``) — the part of a campaign cell id between the brackets.
    """
    names = list(axes)
    specs = []
    for combo in itertools.product(*(axes[name] for name in names)):
        label = ",".join(f"{name}={canonicalize(value)}"
                         for name, value in zip(names, combo))
        specs.append(ScenarioSpec.make(
            fn, label=label, **{**base, **dict(zip(names, combo))}))
    return tuple(specs)
