"""The public names of the package, which every change keeps the same."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

import rspaces
import rspaces.antipodal
import rspaces.roots


def test_all_names():
    assert rspaces.__all__ == [
        "ClassificationReport",
        "CoweightVector",
        "FixedRootSet",
        "GammaSubgroup",
        "IndexSet",
        "OrbitResult",
        "Root",
        "RootSystem",
        "RootSystemError",
        "RootSystemType",
        "admissibility_witness",
        "build",
        "cartan_matrix",
        "closed_form",
        "coefficient",
        "enumerate_admissible",
        "evaluate_on_xi_sum",
        "extrinsic_symmetric_indices",
        "find_all_even_root",
        "fixed_root_set",
        "full_set_admissible_iff_reduced",
        "gamma_full",
        "is_admissible",
        "is_triple",
        "is_union_closed",
        "minimal_triple_subgroups",
        "orbit",
        "positive_root_count",
        "reflect",
        "stabilizer_order",
        "subgroup_span",
        "two_number",
        "verify_classification",
        "verify_maximality_proposition",
        "weyl_group_order",
        "xi_vector",
    ]
    assert all(hasattr(rspaces, name) for name in rspaces.__all__)


def test_each_name_is_exported_from_its_defining_module():
    # not from a module that imports it (antipodal imports IndexSet and
    # is_admissible, say): the table maps a name to where it is defined
    package = Path(rspaces.__file__).parent
    defined = {}
    for module in set(rspaces._EXPORTS.values()):
        tree = ast.parse((package / f"{module}.py").read_text())
        defined[module] = {node.name for node in tree.body if hasattr(node, "name")} | {
            target.id
            for node in tree.body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
    misplaced = [name for name, module in rspaces._EXPORTS.items() if name not in defined[module]]
    assert misplaced == []


def test_module_attributes():
    # dir() lists the module's globals, every public name and submodule; any
    # other name is an AttributeError
    assert {"__version__", *rspaces.__all__, *rspaces._EXPORTS.values()} <= set(dir(rspaces))
    with pytest.raises(AttributeError, match="^module 'rspaces' has no attribute 'nope'$"):
        rspaces.nope


def test_version_is_the_published_one():
    pyproject = (Path(rspaces.__file__).parents[2] / "pyproject.toml").read_text()
    assert f'version = "{rspaces.__version__}"' in pyproject.splitlines()


def test_weyl_group_order_is_one_function():
    # defined with the other per-family numbers in roots, re-exported unchanged
    assert rspaces.weyl_group_order is rspaces.roots.weyl_group_order
    assert rspaces.antipodal.weyl_group_order is rspaces.roots.weyl_group_order


def public_members(cls):
    """Dataclass fields plus every class attribute not starting with an underscore."""
    return sorted({f.name for f in fields(cls)} | {n for n in dir(cls) if not n.startswith("_")})


def test_public_class_members():
    # an added member is added on purpose, and a removed one stays removed
    assert public_members(rspaces.IndexSet) == ["from_iterable", "full", "issubset", "mask", "of"]
    assert public_members(rspaces.GammaSubgroup) == [
        "basis", "dim", "elements", "issubgroup_of", "order", "rank",
    ]
    assert public_members(rspaces.RootSystem) == [
        "all_roots",
        "cartan",
        "even_nonzero_on",
        "highest_root",
        "nonzero_on",
        "odd_columns",
        "odd_on",
        "parity_masks",
        "positive_roots",
        "rank",
        "roots_at",
        "simple_roots",
        "support_columns",
        "type",
    ]
    # dir(), not hasattr(): every class reaches type.__or__, the `int | str` of PEP 604
    for name in ("__or__", "__and__", "__xor__", "__sub__"):
        assert name not in dir(rspaces.IndexSet), name
    assert "__contains__" not in dir(rspaces.RootSystem)
