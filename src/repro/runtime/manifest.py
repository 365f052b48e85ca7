"""Declarative campaign manifests: experiments × grids × seeds.

A campaign manifest is a TOML file describing a grid of
scenarios across one or more experiment drivers.  It expands into a list
of :class:`CampaignCell` — a stable cell id plus a canonical
:class:`~repro.runtime.spec.ScenarioSpec` — which the campaign runner
(:mod:`repro.runtime.campaign`) executes as cached, journalled batches.

Schema (TOML spelling)::

    [campaign]
    name = "smoke"          # required; names the output directory
    seeds = [0, 1]          # optional: a seed axis for every experiment

    [[experiment]]
    id = "flap"             # required, unique per manifest
    driver = "link_flap"    # experiment id, or a dotted "module:callable"

    [experiment.params]     # fixed parameters, passed to every cell
    duration = 4
    dt = 0.01

    [experiment.axes]       # sweep axes: name -> list of values; cells
    period = [2, 4]         # are the cross product, in declared order
    depth = [0.5, 1.0]

    [[experiment.exclude]]  # optional: drop cells matching any row
    period = 2              # (all listed params equal)
    depth = 0.5

Each block's grid is expanded by :func:`repro.runtime.spec.expand_grid`
— the one cross-product expander; a manifest is how a grid of runs is
written — and a cell id is ``<experiment id>[<grid label>]``, i.e. ``axis=value,...`` with
values in canonical spelling (``2.0`` prints as ``2``), so the same
manifest always produces the same ids — they are the join key for
``repro-campaign diff``.  Fault windows are not a manifest concept: the
chaos drivers (``link_flap``, ``reroute``) derive theirs from numeric
axes (``period``, ``depth``, ``duty``), which sweep like any other.

Bare ``driver`` names are resolved against the experiment registry
*lazily* (only during :meth:`CampaignManifest.expand`), so importing this
module — and the whole ``repro.runtime`` package — never pulls the driver
layer in, preserving the runtime-below-experiments layering rule.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from .spec import ScenarioSpec, canonicalize, expand_grid

#: Keys accepted at each level; anything else is a spelling mistake and
#: rejected loudly rather than silently ignored.
_CAMPAIGN_KEYS = frozenset({"name", "seeds"})
_EXPERIMENT_KEYS = frozenset({"id", "driver", "params", "axes", "exclude"})
_TOP_KEYS = frozenset({"campaign", "experiment"})


class ManifestError(ValueError):
    """The manifest file is malformed or semantically invalid."""


def default_experiment_resolver(name: str) -> str:
    """Map a bare experiment id to its front-end's ``"module:function"``.

    Imports :mod:`repro.experiments` lazily — only when a manifest
    actually uses a bare id — so the runtime package stays importable
    without the driver layer; the registry holds *names*, so no driver is
    imported to expand a manifest.
    """
    import importlib

    index = importlib.import_module("repro.experiments").EXPERIMENT_INDEX
    if name not in index:
        raise ManifestError(
            f"unknown experiment id {name!r}; known ids: "
            f"{', '.join(sorted(index))} "
            f"(or use a dotted 'module:callable' path)")
    return index[name]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ManifestError(message)


def _scalar_list(value: Any, where: str) -> Tuple[Any, ...]:
    _require(isinstance(value, (list, tuple)) and len(value) > 0,
             f"{where} must be a non-empty list, got {value!r}")
    for item in value:
        _require(isinstance(item, (str, int, float, bool)) or item is None,
                 f"{where} entries must be scalars, got {item!r}")
    return tuple(value)


def _matches(params: Mapping[str, Any], row: Mapping[str, Any]) -> bool:
    """Whether a cell's (canonical) parameters satisfy one exclude row."""
    return all(name in params and params[name] == canonicalize(value)
               for name, value in row.items())


@dataclass(frozen=True)
class ExperimentBlock:
    """One ``[[experiment]]`` table of a manifest, validated."""

    id: str
    driver: str
    params: Tuple[Tuple[str, Any], ...] = ()
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    exclude: Tuple[Tuple[Tuple[str, Any], ...], ...] = ()


@dataclass(frozen=True)
class CampaignCell:
    """One expanded grid point: stable id + canonical scenario spec."""

    cell_id: str
    experiment: str
    spec: ScenarioSpec


@dataclass
class CampaignManifest:
    """A parsed campaign manifest, ready to expand into cells.

    Attributes:
        name: Campaign name (output directory / journal naming).
        seeds: Campaign-level seed axis of every block (may be ``None``).
        experiments: The validated experiment blocks, in file order.
        path: Source file, when loaded from disk.
        digest: Content hash of the manifest source (summary provenance).
    """

    name: str
    experiments: List[ExperimentBlock]
    seeds: Optional[Tuple[int, ...]] = None
    path: Optional[Path] = None
    digest: str = ""

    # ------------------------------------------------------------------ #
    # Parsing
    # ------------------------------------------------------------------ #
    @classmethod
    def load(cls, path: Union[str, Path]) -> "CampaignManifest":
        """Parse a TOML manifest file."""
        path = Path(path)
        try:
            raw = path.read_bytes()
        except OSError as error:
            raise ManifestError(f"cannot read manifest {path}: {error}")
        import tomllib

        try:
            data = tomllib.loads(raw.decode("utf-8"))
        except tomllib.TOMLDecodeError as error:
            raise ManifestError(f"{path}: invalid TOML: {error}")
        manifest = cls.from_mapping(data)
        manifest.path = path
        manifest.digest = hashlib.sha256(raw).hexdigest()[:16]
        return manifest

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "CampaignManifest":
        """Build and validate a manifest from an already-parsed mapping."""
        _require(isinstance(data, Mapping), "manifest must be a table")
        unknown = set(data) - _TOP_KEYS
        _require(not unknown,
                 f"unknown top-level manifest keys {sorted(unknown)}; "
                 f"expected {sorted(_TOP_KEYS)}")
        campaign = data.get("campaign")
        _require(isinstance(campaign, Mapping),
                 "manifest needs a [campaign] table")
        unknown = set(campaign) - _CAMPAIGN_KEYS
        _require(not unknown,
                 f"unknown [campaign] keys {sorted(unknown)}")
        name = campaign.get("name")
        _require(isinstance(name, str) and name.strip() != "",
                 "[campaign].name must be a non-empty string")
        seeds = campaign.get("seeds")
        if seeds is not None:
            seeds = tuple(int(s) for s in _scalar_list(
                seeds, "[campaign].seeds"))
        blocks_raw = data.get("experiment")
        _require(isinstance(blocks_raw, list) and blocks_raw,
                 "manifest needs at least one [[experiment]] table")
        blocks, seen_ids = [], set()
        for index, block in enumerate(blocks_raw):
            where = f"[[experiment]] #{index + 1}"
            _require(isinstance(block, Mapping), f"{where} must be a table")
            unknown = set(block) - _EXPERIMENT_KEYS
            _require(not unknown, f"{where}: unknown keys {sorted(unknown)}")
            block_id = block.get("id")
            _require(isinstance(block_id, str) and block_id.strip() != "",
                     f"{where}: id must be a non-empty string")
            _require(block_id not in seen_ids,
                     f"{where}: duplicate experiment id {block_id!r}")
            seen_ids.add(block_id)
            driver = block.get("driver")
            _require(isinstance(driver, str) and driver.strip() != "",
                     f"{where}: driver must be a non-empty string")
            params = block.get("params", {})
            _require(isinstance(params, Mapping),
                     f"{where}: params must be a table")
            axes_raw = block.get("axes", {})
            _require(isinstance(axes_raw, Mapping),
                     f"{where}: axes must be a table of lists")
            axes = []
            for axis, values in axes_raw.items():
                _require(axis not in params,
                         f"{where}: {axis!r} is both a fixed param and an "
                         f"axis")
                axes.append((axis, _scalar_list(
                    values, f"{where}: axes.{axis}")))
            exclude = block.get("exclude", [])
            _require(isinstance(exclude, list) and all(
                isinstance(row, Mapping) for row in exclude),
                f"{where}: exclude must be a list of tables")
            blocks.append(ExperimentBlock(
                id=block_id, driver=driver,
                params=tuple(sorted(params.items())),
                axes=tuple(axes),
                exclude=tuple(tuple(sorted(r.items())) for r in exclude)))
        return cls(name=name, experiments=blocks, seeds=seeds)

    # ------------------------------------------------------------------ #
    # Expansion
    # ------------------------------------------------------------------ #
    def expand(self, resolver: Optional[Callable[[str], str]] = None
               ) -> List[CampaignCell]:
        """Expand every experiment block into its filtered grid of cells.

        ``resolver`` maps bare driver names to dotted paths; defaults to
        the experiment registry (:func:`default_experiment_resolver`).
        """
        resolve = resolver or default_experiment_resolver
        cells: List[CampaignCell] = []
        seen: Dict[str, str] = {}
        for block in self.experiments:
            fn = block.driver if ":" in block.driver \
                else resolve(block.driver)
            base: Dict[str, Any] = dict(block.params)
            axes: Dict[str, Tuple[Any, ...]] = dict(block.axes)
            if self.seeds is not None:
                _require("seed" not in axes and "seed" not in base,
                         f"experiment {block.id!r}: seeds given while "
                         f"'seed' is already a param or axis")
                axes["seed"] = self.seeds
            for spec in expand_grid(fn, base, axes):
                params = dict(spec.params)
                if any(_matches(params, dict(row)) for row in block.exclude):
                    continue
                cell_id = f"{block.id}[{spec.label}]" if axes else block.id
                _require(cell_id not in seen,
                         f"duplicate cell id {cell_id!r} (experiments "
                         f"{seen.get(cell_id)!r} and {block.id!r})")
                seen[cell_id] = block.id
                cells.append(CampaignCell(
                    cell_id=cell_id, experiment=block.id,
                    spec=dataclasses.replace(spec, label=cell_id)))
        _require(bool(cells), "manifest expands to zero cells "
                              "(filters removed everything)")
        return cells
