"""Campaign manifests: parsing, validation, and grid expansion."""

from __future__ import annotations

import pytest

from repro.runtime.manifest import (
    CampaignManifest,
    ManifestError,
    default_experiment_resolver,
)
from repro.runtime.spec import expand_grid

_TOML = """
[campaign]
name = "demo"
seeds = [0, 1]

[[experiment]]
id = "toy"
driver = "_toy_driver:run"

[experiment.params]
dt = 0.004

[experiment.axes]
scale = [1.0, 2.0]
"""


def _mapping(**overrides):
    data = {
        "campaign": {"name": "demo"},
        "experiment": [
            {"id": "toy", "driver": "_toy_driver:run",
             "params": {"dt": 0.004}, "axes": {"scale": [1.0, 2.0]}},
        ],
    }
    data.update(overrides)
    return data


# --------------------------------------------------------------------- #
# Parsing
# --------------------------------------------------------------------- #
def test_toml_load_and_expand(tmp_path):
    path = tmp_path / "demo.toml"
    path.write_text(_TOML, encoding="utf-8")
    manifest = CampaignManifest.load(path)
    assert manifest.name == "demo"
    assert manifest.path == path
    assert len(manifest.digest) == 16
    cells = manifest.expand()
    assert [c.cell_id for c in cells] == [
        "toy[scale=1,seed=0]", "toy[scale=1,seed=1]",
        "toy[scale=2,seed=0]", "toy[scale=2,seed=1]"]
    assert all(c.spec.fn == "_toy_driver:run" for c in cells)
    assert cells[0].spec.kwargs() == {"dt": 0.004, "scale": 1, "seed": 0}


def test_invalid_toml_names_the_file(tmp_path):
    path = tmp_path / "broken.toml"
    path.write_text("[campaign\nname =", encoding="utf-8")
    with pytest.raises(ManifestError, match="invalid TOML"):
        CampaignManifest.load(path)


# --------------------------------------------------------------------- #
# Validation
# --------------------------------------------------------------------- #
def test_unknown_keys_rejected_at_every_level():
    with pytest.raises(ManifestError, match="top-level"):
        CampaignManifest.from_mapping(_mapping(extras={}))
    with pytest.raises(ManifestError, match="campaign"):
        CampaignManifest.from_mapping(
            _mapping(campaign={"name": "x", "typo": 1}))
    bad = _mapping()
    bad["experiment"][0]["axis"] = {}  # misspelt "axes"
    with pytest.raises(ManifestError, match="unknown keys"):
        CampaignManifest.from_mapping(bad)
    # A block filters only by exclusion, and its seeds are the campaign's.
    for key, value in (("include", [{"scale": 1.0}]), ("seeds", [9])):
        bad = _mapping()
        bad["experiment"][0][key] = value
        with pytest.raises(ManifestError,
                           match=rf"unknown keys \['{key}'\]"):
            CampaignManifest.from_mapping(bad)


def test_campaign_name_required():
    with pytest.raises(ManifestError, match="name"):
        CampaignManifest.from_mapping(_mapping(campaign={}))


def test_duplicate_experiment_ids_rejected():
    data = _mapping()
    data["experiment"].append(dict(data["experiment"][0]))
    with pytest.raises(ManifestError, match="duplicate experiment id"):
        CampaignManifest.from_mapping(data)


def test_axis_shadowing_a_param_rejected():
    data = _mapping()
    data["experiment"][0]["axes"]["dt"] = [0.01]
    with pytest.raises(ManifestError, match="both a fixed param"):
        CampaignManifest.from_mapping(data)


def test_seeds_with_explicit_seed_axis_rejected():
    data = _mapping(campaign={"name": "demo", "seeds": [0]})
    data["experiment"][0]["axes"]["seed"] = [7]
    with pytest.raises(ManifestError, match="seed"):
        CampaignManifest.from_mapping(data).expand()


def test_duplicate_cell_ids_rejected():
    # 1 and 1.0 canonicalise identically, so the grid would collide.
    data = _mapping()
    data["experiment"][0]["axes"]["scale"] = [1, 1.0]
    with pytest.raises(ManifestError, match="duplicate cell id"):
        CampaignManifest.from_mapping(data).expand()


def test_zero_cells_after_filtering_rejected():
    data = _mapping()
    data["experiment"][0]["exclude"] = [{"scale": 1.0}, {"scale": 2.0}]
    with pytest.raises(ManifestError, match="zero cells"):
        CampaignManifest.from_mapping(data).expand()


def test_bad_fault_field_rejected():
    # Rejected at parse time, whatever the rows hold: the table itself is
    # unknown (see test_faults_table_is_rejected_as_an_unknown_key).
    data = _mapping()
    data["experiment"][0]["faults"] = [{"kind": "link_flap", "oops": 1}]
    with pytest.raises(ManifestError, match="unknown keys"):
        CampaignManifest.from_mapping(data)


# --------------------------------------------------------------------- #
# Expansion semantics
# --------------------------------------------------------------------- #
def test_exclude_filtering():
    data = _mapping()
    data["experiment"][0]["axes"]["scale"] = [1.0, 2.0, 3.0]
    data["experiment"][0]["exclude"] = [{"scale": 2.0}, {"scale": 3}]
    cells = CampaignManifest.from_mapping(data).expand()
    assert [c.cell_id for c in cells] == ["toy[scale=1]"]


def test_cell_ids_use_canonical_value_spelling():
    # 2.0 and 2 are the same parameter value; the id must spell them the
    # same way or diff join keys break between manifests that spell it
    # differently.
    data = _mapping()
    data["experiment"][0]["axes"]["scale"] = [2.0]
    cells = CampaignManifest.from_mapping(data).expand()
    assert cells[0].cell_id == "toy[scale=2]"


def test_faults_table_is_rejected_as_an_unknown_key():
    """Fault windows are not a manifest concept any more: the chaos
    drivers derive theirs from numeric axes, so a leftover
    ``[[experiment.faults]]`` table is a spelling mistake like any other."""
    data = _mapping()
    data["experiment"][0]["faults"] = [
        {"kind": "link_flap", "link": "wan", "start": 1.0, "duration": 0.5}]
    with pytest.raises(ManifestError, match=r"unknown keys \['faults'\]"):
        CampaignManifest.from_mapping(data)


#: One table of grids for both expanders: (axes, bracketed part of the id).
_SHARED_GRIDS = [
    ({"scale": [2.0]}, ["scale=2"]),
    ({"scale": [1.5, 2.0], "seed": [0, 1]},
     ["scale=1.5,seed=0", "scale=1.5,seed=1", "scale=2,seed=0",
      "scale=2,seed=1"]),
    ({"mode": ["fast", "slow"]}, ["mode=fast", "mode=slow"]),
    ({"flag": [True, False], "depth": [-0.0, 1e-3]},
     ["flag=True,depth=0", "flag=True,depth=0.001", "flag=False,depth=0",
      "flag=False,depth=0.001"]),
    ({}, [""]),
]


@pytest.mark.parametrize("axes, points", _SHARED_GRIDS)
def test_expand_grid_and_manifest_cell_ids_agree(axes, points):
    """A manifest's cells are ``expand_grid``'s points — the one
    expander: same points, in the same order, spelled the same way,
    carrying the same specs."""
    base = {"dt": 0.004}
    specs = expand_grid("_toy_driver:run", base, axes)
    block = {"id": "toy", "driver": "_toy_driver:run", "params": base}
    if axes:
        block["axes"] = axes
    cells = CampaignManifest.from_mapping(
        _mapping(experiment=[block])).expand()
    assert [spec.label for spec in specs] == [p or "run" for p in points]
    assert [cell.cell_id for cell in cells] == [
        f"toy[{point}]" if point else "toy" for point in points]
    assert [cell.spec for cell in cells] == list(specs)
    assert [cell.spec.label for cell in cells] == [
        cell.cell_id for cell in cells]


def test_no_axes_yields_a_single_bare_cell():
    data = _mapping()
    data["experiment"][0].pop("axes")
    cells = CampaignManifest.from_mapping(data).expand()
    assert [c.cell_id for c in cells] == ["toy"]
    assert cells[0].spec.kwargs() == {"dt": 0.004}


def test_custom_resolver_maps_bare_driver_names():
    data = _mapping()
    data["experiment"][0]["driver"] = "toyname"
    cells = CampaignManifest.from_mapping(data).expand(
        resolver=lambda name: {"toyname": "_toy_driver:run"}[name])
    assert cells[0].spec.fn == "_toy_driver:run"


def test_default_resolver_uses_the_experiment_registry():
    assert default_experiment_resolver("link_flap") == \
        "repro.experiments.link_flap:run"
    # The registry names the function, not just the module: an id that
    # shares a module with another reaches its own front-end.
    data = _mapping()
    data["experiment"][0]["driver"] = "fig20"
    cells = CampaignManifest.from_mapping(data).expand()
    assert {cell.spec.fn for cell in cells} == {
        "repro.experiments.internet_paths:run_appendix_a"}
    with pytest.raises(ManifestError, match="unknown experiment id"):
        default_experiment_resolver("definitely_not_registered")
