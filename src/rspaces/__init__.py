"""Root-parity classification of symmetric structures on R-spaces.

Builds every irreducible root system exactly, decides which index sets admit
the natural finite-abelian symmetric structure, enumerates the corresponding
maximal antipodal sets as Weyl orbits (the 2-numbers), and analyzes which
involution subgroups already force the structure.
"""

__version__ = "0.1.0"

# Every public name, once, with the module that defines it. __getattr__
# imports that module on first use (PEP 562): `import rspaces` loads none.
_EXPORTS = {
    "ClassificationReport": "admissible",
    "IndexSet": "admissible",
    "admissibility_witness": "admissible",
    "closed_form": "admissible",
    "enumerate_admissible": "admissible",
    "extrinsic_symmetric_indices": "admissible",
    "find_all_even_root": "admissible",
    "full_set_admissible_iff_reduced": "admissible",
    "is_admissible": "admissible",
    "is_union_closed": "admissible",
    "verify_classification": "admissible",
    "CoweightVector": "antipodal",
    "OrbitResult": "antipodal",
    "orbit": "antipodal",
    "reflect": "antipodal",
    "stabilizer_order": "antipodal",
    "two_number": "antipodal",
    "xi_vector": "antipodal",
    "FixedRootSet": "gamma",
    "GammaSubgroup": "gamma",
    "fixed_root_set": "gamma",
    "gamma_full": "gamma",
    "is_triple": "gamma",
    "minimal_triple_subgroups": "gamma",
    "subgroup_span": "gamma",
    "verify_maximality_proposition": "gamma",
    "Root": "roots",
    "RootSystem": "roots",
    "RootSystemError": "roots",
    "RootSystemType": "roots",
    "build": "roots",
    "cartan_matrix": "roots",
    "coefficient": "roots",
    "evaluate_on_xi_sum": "roots",
    "positive_root_count": "roots",
    "weyl_group_order": "roots",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # __import__, not importlib.import_module: only the former shows in -X importtime
    if name in _EXPORTS.values():  # the submodules roots, admissible, antipodal, gamma
        return __import__(f"{__name__}.{name}", fromlist=[name])
    if name in _EXPORTS:  # not cached, so a name rebound in its module is seen at once
        return getattr(__getattr__(_EXPORTS[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_EXPORTS.values()})
