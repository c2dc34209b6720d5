"""Root-bitset parity paths against literal per-root scans.

The scans below read each root's (odd, support) masks one root at a time,
as the library did before its parity checks became folds over root-bitset
columns.  They are the oracles: every fast path must return exactly what
they return, witnesses and root order included.
"""

import random

import pytest

from rspaces.admissible import (
    IndexSet,
    admissibility_witness,
    enumerate_admissible,
    is_admissible,
)
from rspaces.antipodal import stabilizer_order
from rspaces.gamma import (
    all_subgroups,
    fixed_root_set,
    is_triple,
    subgroup_span,
    triple_witness,
)
from rspaces.roots import RootSystemType, build
from rspaces.verify import standard_types

# ---------------------------------------------------------------------------
# per-root scans (oracles)


def is_admissible_by_scan(system, I):
    m = I.mask
    return all(odd & m or not sup & m for odd, sup in system.parity_masks)


def admissibility_witness_by_scan(system, I):
    m = I.mask
    for root, (odd, sup) in zip(reversed(system.positive_roots), reversed(system.parity_masks)):
        if not odd & m and sup & m:
            return root
    return None


def enumerate_admissible_by_scan(system):
    return [
        IndexSet(m)
        for m in range(1, 1 << system.rank)
        if all(odd & m or not sup & m for odd, sup in system.parity_masks)
    ]


def even_on_basis(odd_mask, basis):
    return all((odd_mask & b).bit_count() % 2 == 0 for b in basis)


def fixed_root_set_by_scan(system, subgroup):
    pairs = zip(system.positive_roots, system.parity_masks)
    return tuple(root for root, (odd, _) in pairs if even_on_basis(odd, subgroup.basis))


def roots_vanishing_on_by_scan(system, I):
    pairs = zip(system.positive_roots, system.parity_masks)
    return tuple(root for root, (_, sup) in pairs if not sup & I.mask)


def triple_witness_by_scan(system, I, subgroup):
    m = I.mask
    for root, (odd, sup) in zip(reversed(system.positive_roots), reversed(system.parity_masks)):
        if even_on_basis(odd, subgroup.basis) != (not sup & m):
            return root
    return None


def stabilizer_order_by_scan(system, I):
    num = den = 1
    for root, (odd, sup) in zip(system.positive_roots, system.parity_masks):
        if odd and not sup & I.mask:
            height = sum(root)
            num *= height + 1
            den *= height
    return num // den


# ---------------------------------------------------------------------------
# comparisons


def assert_index_set_paths_match(system, I):
    assert is_admissible(system, I) == is_admissible_by_scan(system, I), I
    assert admissibility_witness(system, I) == admissibility_witness_by_scan(system, I), I
    vanishing = system.roots_at(system.all_roots & ~system.nonzero_on(I.mask))
    assert vanishing == roots_vanishing_on_by_scan(system, I), I
    assert stabilizer_order(system, I) == stabilizer_order_by_scan(system, I), I


def assert_subgroup_paths_match(system, I, sub):
    assert fixed_root_set(system, sub).roots == fixed_root_set_by_scan(system, sub), sub
    want = triple_witness_by_scan(system, I, sub)
    assert triple_witness(system, I, sub) == want, (I, sub)
    assert is_triple(system, I, sub) == (want is None), (I, sub)


@pytest.mark.parametrize("t", list(standard_types(6)), ids=str)
def test_every_index_set_matches_scans_through_rank_6(t):
    system = build(t)
    assert enumerate_admissible(system) == enumerate_admissible_by_scan(system)
    for I in map(IndexSet, range(1, 1 << t.rank)):
        assert_index_set_paths_match(system, I)


HIGH_RANK_TYPES = [t for t in standard_types() if t.rank >= 7] + [RootSystemType("E", 6)]


@pytest.mark.parametrize("t", HIGH_RANK_TYPES, ids=str)
def test_seeded_draws_match_scans_at_high_rank(t):
    system = build(t)
    r = t.rank
    full = (1 << r) - 1
    assert enumerate_admissible(system) == enumerate_admissible_by_scan(system)
    rng = random.Random(f"parity-bitsets-{t}")
    for _ in range(150):
        I = IndexSet(rng.randint(1, full))
        # half the subgroups lie inside Gamma^I, where triples live
        within = I.mask if rng.random() < 0.5 else full
        gens = [IndexSet(rng.randint(0, full) & within) for _ in range(rng.randint(1, 3))]
        assert_index_set_paths_match(system, I)
        assert_subgroup_paths_match(system, I, subgroup_span(gens, r))


@pytest.mark.parametrize("t", list(standard_types(4)), ids=str)
def test_every_subgroup_matches_scans_through_rank_4(t):
    system = build(t)
    subsets = list(map(IndexSet, range(1, 1 << t.rank)))
    for sub in all_subgroups(t.rank):
        for I in subsets:
            assert_subgroup_paths_match(system, I, sub)


def test_scans_see_triples_and_witnesses():
    # the comparisons above would be empty if every answer were None or True
    system = build(RootSystemType("E", 6))
    I = IndexSet.of(1, 6)
    assert admissibility_witness_by_scan(system, IndexSet.of(1, 4)) is not None
    assert triple_witness_by_scan(system, I, subgroup_span([IndexSet.of(1), IndexSet.of(6)], 6)) is None
    assert triple_witness_by_scan(system, I, subgroup_span([IndexSet.of(1, 6)], 6)) is not None
