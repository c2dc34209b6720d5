"""Root-parity classification of symmetric structures on R-spaces.

Builds every irreducible root system exactly, decides which index sets admit
the natural finite-abelian symmetric structure, enumerates the corresponding
maximal antipodal sets as Weyl orbits (the 2-numbers), and analyzes which
involution subgroups already force the structure.
"""

from .admissible import (
    ClassificationReport,
    IndexSet,
    admissibility_witness,
    closed_form,
    enumerate_admissible,
    extrinsic_symmetric_indices,
    find_all_even_root,
    full_set_admissible_iff_reduced,
    is_admissible,
    is_union_closed,
    verify_classification,
)
from .antipodal import (
    CoweightVector,
    OrbitResult,
    orbit,
    reflect,
    stabilizer_order,
    two_number,
    weyl_group_order,
    xi_vector,
)
from .gamma import (
    FixedRootSet,
    GammaSubgroup,
    fixed_root_set,
    gamma_full,
    is_triple,
    minimal_triple_subgroups,
    subgroup_span,
    verify_maximality_proposition,
)
from .roots import (
    Root,
    RootSystem,
    RootSystemError,
    RootSystemType,
    build,
    cartan_matrix,
    coefficient,
    evaluate_on_xi_sum,
    positive_root_count,
)

__version__ = "0.1.0"

__all__ = [
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
