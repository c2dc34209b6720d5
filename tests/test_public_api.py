"""The public names of the package, which every change keeps the same."""

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


def test_weyl_group_order_is_one_function():
    # defined with the other per-family numbers in roots, re-exported unchanged
    assert rspaces.weyl_group_order is rspaces.roots.weyl_group_order
    assert rspaces.antipodal.weyl_group_order is rspaces.roots.weyl_group_order
