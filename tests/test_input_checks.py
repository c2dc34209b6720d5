"""Every public (system, I) function rejects an empty or out-of-rank index set,
every triple function a subgroup of another rank, reflect a vector of another
length, and the library's orbit() refuses a budget that is not a positive
int and ignores the CLI's budget variable."""

import numpy as np
import pytest

from rspaces.admissible import IndexSet, admissibility_witness, closed_form, is_admissible
from rspaces.antipodal import orbit, reflect, stabilizer_order, two_number, xi_vector
from rspaces.gamma import (
    fixed_root_set,
    fixed_root_set_by_definition,
    gamma_full,
    is_triple,
    triple_witness,
)
from rspaces.roots import RootSystemType, build

A3 = build(RootSystemType("A", 3))
SUBGROUP = gamma_full(IndexSet.of(1), 3)

INDEX_SET_CALLS = {
    "is_admissible": lambda I: is_admissible(A3, I),
    "admissibility_witness": lambda I: admissibility_witness(A3, I),
    "closed_form": lambda I: closed_form(A3.type, I),
    "stabilizer_order": lambda I: stabilizer_order(A3, I),
    "orbit": lambda I: orbit(A3, I),
    "two_number": lambda I: two_number(A3, I),
    "xi_vector": lambda I: xi_vector(I, 3),
    "triple_witness": lambda I: triple_witness(A3, I, SUBGROUP),
    "is_triple": lambda I: is_triple(A3, I, SUBGROUP),
}

SUBGROUP_CALLS = {
    "fixed_root_set": lambda sub: fixed_root_set(A3, sub),
    "fixed_root_set_by_definition": lambda sub: fixed_root_set_by_definition(A3, sub),
    "triple_witness": lambda sub: triple_witness(A3, IndexSet.of(1), sub),
    "is_triple": lambda sub: is_triple(A3, IndexSet.of(1), sub),
}

CASES = [
    pytest.param(call, I, message, id=f"{name}-{label}")
    for name, call in INDEX_SET_CALLS.items()
    for label, I, message in (
        ("empty", IndexSet(0), "index set must be non-empty"),
        ("out-of-rank", IndexSet.of(1, 4), "index set {1,4} exceeds rank 3"),
    )
] + [
    pytest.param(call, gamma_full(IndexSet.of(1), r), f"subgroup of rank {r} does not act on A3",
                 id=f"{name}-subgroup-rank-{r}")
    for name, call in SUBGROUP_CALLS.items()
    for r in (2, 6)
] + [
    pytest.param(lambda v: reflect(v, 1, A3), v, f"vector of length {len(v)} does not match rank 3",
                 id=f"reflect-length-{len(v)}")
    for v in ((1, 2, 3, 4), (1, 2))
] + [
    pytest.param(lambda b: orbit(A3, IndexSet.of(1), enumerate=True, budget=b), budget,
                 f"budget must be a positive int, got {budget!r}", id=f"orbit-budget-{budget!r}")
    for budget in (0, 1.5, "5", np.int64(5))
]


@pytest.mark.parametrize("call, arg, message", CASES)
def test_invalid_input_raises(call, arg, message):
    with pytest.raises(ValueError) as info:
        call(arg)
    assert str(info.value) == message


@pytest.mark.parametrize("raw", ["1", "abc"])
def test_library_orbit_ignores_budget_env(monkeypatch, raw):
    monkeypatch.setenv("RSPACES_ORBIT_BUDGET", raw)
    res = orbit(build(RootSystemType("A", 4)), IndexSet.full(4), enumerate=True)
    assert res.method == "both" and res.size == 120
