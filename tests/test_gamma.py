"""Involution subgroups, fixed root sets, and the triple criterion."""

import inspect
import random
from dataclasses import fields
from functools import reduce
from itertools import combinations, product
from operator import or_, xor

import pytest

from rspaces import gamma
from rspaces.admissible import IndexSet, enumerate_admissible, is_admissible
from rspaces.gamma import (
    GammaSubgroup,
    _echelon_bases,
    _reduced_echelon,
    all_subgroups,
    fixed_root_set,
    fixed_root_set_by_definition,
    gamma_full,
    is_triple,
    minimal_triple_subgroups,
    subgroup_span,
    triple_witness,
    verify_maximality_proposition,
)
from rspaces.roots import RootSystemType, build, evaluate_on_xi_sum, standard_types


def rst(fam, r):
    return RootSystemType(fam, r)


def vanishing_roots(system, I):
    """Positive roots with a zero coefficient at every index of I, read off the coefficients."""
    return tuple(root for root in system.positive_roots if not any(root[j - 1] for j in I))


# ---------------------------------------------------------------------------
# group elements and spans


def test_subgroup_is_its_reduced_basis():
    assert [f.name for f in fields(GammaSubgroup)] == ["rank", "basis"]
    a = subgroup_span([IndexSet.of(1, 3), IndexSet.of(2)], 3)
    b = subgroup_span([IndexSet.of(1, 2, 3), IndexSet.of(2)], 3)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a.basis == (0b101, 0b010)
    assert a != subgroup_span([IndexSet.of(1, 3), IndexSet.of(2)], 4)


# each basis that is not reduced echelon, with the reason construction gives
UNREDUCED = {
    (0b11, 0b1): "strictly increase",  # the span of {1} and {2}, not reduced: pivot 1 recurs
    (0b10, 0b1): "strictly increase",  # pivots decrease
    (0b1, 0b1): "strictly increase",  # a repeated pivot
    (0b1, 0): "zero or exceeds rank",  # a zero row
    (0b1000,): "zero or exceeds rank",  # a bit at the rank
    (0b101, 0b100): "not reduced",  # pivot 3 also set in the first row
    (0b1, 0b11): "strictly increase",  # pivot 1 again, in the later row
}


@pytest.mark.parametrize("basis", UNREDUCED)
def test_subgroup_rejects_unreduced_basis(basis):
    with pytest.raises(ValueError, match=UNREDUCED[basis]):
        GammaSubgroup(3, basis)


def test_subgroup_accepts_reduced_basis():
    sub = GammaSubgroup(3, (0b1, 0b10))
    assert sub == subgroup_span([IndexSet.of(1), IndexSet.of(1, 2)], 3)
    assert GammaSubgroup(3, ()) == subgroup_span([], 3)
    assert GammaSubgroup(3, (0b011, 0b100)).elements[-1] == IndexSet.full(3)


def test_distinct_labels_give_distinct_elements():
    sub = gamma_full(IndexSet.full(3), 3)
    assert len(set(sub.elements)) == 8


def test_gamma_full_is_the_span_of_the_single_indices():
    # the basis built directly is the one the echelon pass makes
    for r in range(1, 7):
        for m in range(1 << r):
            I = IndexSet(m)
            assert gamma_full(I, r) == subgroup_span([IndexSet.of(j) for j in I], r)
            assert gamma_full(I, r).order == 1 << len(I)
    with pytest.raises(ValueError, match=r"^generator \{5\} exceeds rank 4$"):
        gamma_full(IndexSet.of(2, 5, 7), 4)


def test_subgroup_span_example():
    sub = subgroup_span([IndexSet.of(1, 3), IndexSet.of(2)], 4)
    assert [e.mask for e in sub.elements] == [0b0000, 0b0010, 0b0101, 0b0111]
    assert sub.dim == 2 and sub.order == 4


def test_subgroup_span_trivial_and_redundant():
    assert subgroup_span([], 3).elements == (IndexSet(0),)
    sub = subgroup_span([IndexSet.of(1), IndexSet.of(1, 2), IndexSet.of(2)], 3)
    assert sub.dim == 2 and sub.order == 4


def test_subgroup_span_rejects_oversized_generator():
    with pytest.raises(ValueError):
        subgroup_span([IndexSet.of(5)], 4)


def test_span_is_closed_under_product():
    sub = subgroup_span([IndexSet.of(1, 2), IndexSet.of(2, 3)], 4)
    masks = {e.mask for e in sub.elements}
    assert 0 in masks
    for a in masks:
        for b in masks:
            assert a ^ b in masks


def test_subgroup_containment():
    small = subgroup_span([IndexSet.of(1, 3)], 4)
    big = subgroup_span([IndexSet.of(1, 3), IndexSet.of(2)], 4)
    assert small.issubgroup_of(big)
    assert not big.issubgroup_of(small)
    assert subgroup_span([IndexSet.of(1, 2, 3)], 4).issubgroup_of(big)
    assert not subgroup_span([IndexSet.of(1)], 4).issubgroup_of(big)


def test_all_subgroups_counts():
    # Gaussian binomial totals: sums over k of [r choose k]_2
    assert sum(1 for _ in all_subgroups(1)) == 2
    assert sum(1 for _ in all_subgroups(2)) == 5
    assert sum(1 for _ in all_subgroups(3)) == 16
    assert sum(1 for _ in all_subgroups(4)) == 67
    # each subspace exactly once: canonical bases are pairwise distinct
    bases = [s.basis for s in all_subgroups(4)]
    assert len(set(bases)) == len(bases)
    # a generator function, which perfbench's tracer leaves unwrapped: a plain
    # function returning a generator would add a traced span per call
    assert inspect.isgeneratorfunction(all_subgroups)


@pytest.mark.parametrize("r", range(1, 6))
def test_all_subgroups_bases_are_reduced(r):
    for sub in all_subgroups(r):
        assert _reduced_echelon(sub.basis) == sub.basis
        assert sub == subgroup_span(sub.elements, r)


def test_echelon_bases_pass_the_public_constructor():
    # _echelon_bases yields bare bases, reduced as built: every basis it yields,
    # for all_subgroups and for the positions of each admissible I that
    # minimal_triple_subgroups walks, must pass GammaSubgroup's check unchanged
    walks = {(r, tuple(range(r))) for r in range(1, 7)}
    for system in map(build, standard_types(7)):
        for I in enumerate_admissible(system):
            if len(I) <= 6:
                walks.add((system.rank, tuple(j - 1 for j in I)))
    n_bases = 0
    for rank, positions in sorted(walks):
        for basis, _ in _echelon_bases(positions, (0,) * rank):
            assert type(basis) is tuple
            assert GammaSubgroup(rank, basis).basis == basis
            n_bases += 1
    assert n_bases > 10_000


def product_echelon_bases(positions):
    """The former walk, a test oracle: each pivot's rows, last pivot first,
    joined by product(), which varies row 0 fastest."""
    for k in range(len(positions) + 1):
        for pivots in combinations(positions, k):
            choices = []
            for p in reversed(pivots):
                rows = [1 << p]
                for q in positions:
                    if q > p and q not in pivots:
                        rows += [row | 1 << q for row in rows]
                choices.append(rows)
            for rows in product(*choices):
                yield rows[::-1]


def test_echelon_walk_matches_the_product_walk():
    # through rank 6, on range(r) and on the positions of every admissible I:
    # the same bases in the same order, each carrying the roots _moved_roots refolds
    n_walks = n_bases = 0
    for system in map(build, standard_types(6)):
        walks = [range(system.rank)] + [[j - 1 for j in I] for I in enumerate_admissible(system)]
        for positions in walks:
            walked = list(_echelon_bases(positions, system.odd_columns))
            assert [basis for basis, _ in walked] == list(product_echelon_bases(positions))
            assert all(moved == gamma._moved_roots(system, basis) for basis, moved in walked)
            n_walks += 1
            n_bases += len(walked)
    assert (n_walks, n_bases) == (373, 51_235)


def test_elements_are_the_sorted_xor_closure_of_the_basis():
    """Every subgroup through rank 4: each sum of basis rows once, in mask order."""
    for r in range(1, 5):
        for sub in all_subgroups(r):
            sums = (combinations(sub.basis, k) for k in range(sub.dim + 1))
            closure = {reduce(xor, rows, 0) for by_size in sums for rows in by_size}
            assert [J.mask for J in sub.elements] == sorted(closure)
            assert all(type(J) is IndexSet for J in sub.elements)


def test_subgroup_str():
    # acceptance criteria 8 and 10 quote subgroups this way in their failure details
    assert str(subgroup_span([], 3)) == "<e>"
    assert str(subgroup_span([IndexSet.of(1, 3), IndexSet.of(2)], 3)) == "<{1,3}, {2}>"


# ---------------------------------------------------------------------------
# fixed root sets


def test_fixed_root_set_examples():
    a3 = build(rst("A", 3))
    fs = fixed_root_set(a3, subgroup_span([IndexSet.of(1, 3)], 3))
    assert (1, 1, 1) in fs.roots
    trivial = fixed_root_set(a3, subgroup_span([], 3))
    assert trivial.roots == a3.positive_roots
    a4 = build(rst("A", 4))
    fs = fixed_root_set(a4, gamma_full(IndexSet.of(1, 2, 3), 4))
    assert fs.roots == ((0, 0, 0, 1),)


def test_fixed_root_set_basis_equals_definition():
    for fam, r in [("A", 4), ("B", 3), ("G", 2), ("BC", 3)]:
        system = build(rst(fam, r))
        for sub in all_subgroups(r):
            assert fixed_root_set(system, sub) == fixed_root_set_by_definition(system, sub)


def _fixed_by_coefficient_sums(system, sub):
    """The definition in coefficients: roots with even value on xi_J for every J."""
    return tuple(
        root
        for root in system.positive_roots
        if all(evaluate_on_xi_sum(root, J) % 2 == 0 for J in sub.elements)
    )


def test_definition_oracle_matches_coefficient_sums():
    """fixed_root_set_by_definition, which reads parity masks, against the raw coefficients:
    every subgroup of every type through rank 4, then a seeded draw at ranks 5-8."""
    cases = [(build(t), sub) for t in standard_types(4) for sub in all_subgroups(t.rank)]
    assert len(cases) == 495 and {"BC1", "BC4"} <= {str(s.type) for s, _ in cases}
    rng = random.Random(1)
    for t in standard_types():
        if t.rank >= 5:
            system = build(t)
            for _ in range(12):
                gens = [IndexSet(rng.randrange(1, 1 << t.rank)) for _ in range(rng.randint(1, 4))]
                cases.append((system, subgroup_span(gens, t.rank)))
    assert "BC8" in {str(s.type) for s, _ in cases}
    for system, sub in cases:
        want = _fixed_by_coefficient_sums(system, sub)
        assert fixed_root_set_by_definition(system, sub).roots == want


def test_fixed_root_set_anti_monotone():
    system = build(rst("B", 3))
    subs = list(all_subgroups(3))
    for s1 in subs:
        for s2 in subs:
            if s1.issubgroup_of(s2):
                assert set(fixed_root_set(system, s2).roots) <= set(fixed_root_set(system, s1).roots)


def test_vanishing_roots_inside_fixed_set_when_labels_inside_I():
    system = build(rst("D", 4))
    I = IndexSet.of(1, 4)
    vanishing = set(vanishing_roots(system, I))
    for sub in all_subgroups(4):
        if all(J.issubset(I) for J in sub.elements):
            assert vanishing <= set(fixed_root_set(system, sub).roots)


# ---------------------------------------------------------------------------
# triples


def test_flag_example_triples():
    for r in range(3, 7):
        system = build(rst("A", r))
        for i1, i2, i3 in combinations(range(1, r + 1), 3):
            I = IndexSet.of(i1, i2, i3)
            sub = subgroup_span([IndexSet.of(i1, i3), IndexSet.of(i2)], r)
            assert is_triple(system, I, sub)
            assert sub.order == 4 < gamma_full(I, r).order == 8


def test_flag_example_case_analysis():
    """The published three-bullet split of A_r roots agrees with the fixed set."""
    for r in range(3, 7):
        system = build(rst("A", r))
        for i1, i2, i3 in combinations(range(1, r + 1), 3):
            sub = subgroup_span([IndexSet.of(i1, i3), IndexSet.of(i2)], r)
            fixed = set(fixed_root_set(system, sub).roots)
            for root in system.positive_roots:
                support = [p + 1 for p, c in enumerate(root) if c]
                j, k = support[0], support[-1] + 1  # root is e_j - e_k
                in_fixed_by_cases = (
                    k <= i1
                    or (i1 < j and k <= i2)
                    or (i2 < j and k <= i3)
                    or i3 < j
                )
                assert (root in fixed) == in_fixed_by_cases, (r, (i1, i2, i3), root)


def test_triple_with_full_subgroup_iff_admissible():
    for fam, r in [("A", 4), ("B", 4), ("C", 4), ("D", 4), ("F", 4), ("G", 2), ("BC", 3)]:
        system = build(rst(fam, r))
        for m in range(1, 1 << r):
            I = IndexSet(m)
            assert is_triple(system, I, gamma_full(I, r)) == is_admissible(system, I)


def test_triple_counterexample_with_witness():
    a3 = build(rst("A", 3))
    I = IndexSet.of(1, 3)
    sub = subgroup_span([IndexSet.of(1, 3)], 3)
    assert not is_triple(a3, I, sub)
    assert triple_witness(a3, I, sub) == (1, 1, 1)
    good = gamma_full(I, 3)
    assert is_triple(a3, I, good)
    assert triple_witness(a3, I, good) is None


def test_is_triple_rejects_empty_I():
    with pytest.raises(ValueError):
        is_triple(build(rst("A", 2)), IndexSet(0), subgroup_span([], 2))


# ---------------------------------------------------------------------------
# maximality and minimal subgroups


@pytest.mark.parametrize("fam,r", [("A", 3), ("B", 3), ("G", 2), ("BC", 2), ("D", 4)])
def test_maximality_proposition(fam, r):
    assert verify_maximality_proposition(build(rst(fam, r)))


def test_maximality_proposition_can_fail(monkeypatch):
    """It asks about each index set a subgroup forms a triple with (all three
    of A2's), and fails once they are called inadmissible."""
    system = build(rst("A", 2))
    seen = []

    def recorded(system, I):
        seen.append(I.mask)
        return is_admissible(system, I)

    monkeypatch.setattr(gamma, "is_admissible", recorded)
    assert verify_maximality_proposition(system)
    assert seen == [1, 2, 3]
    monkeypatch.setattr(gamma, "is_admissible", lambda system, I: False)
    assert not verify_maximality_proposition(system)


def test_maximality_proposition_needs_the_subgroup_inside_gamma_I(monkeypatch):
    """With every subgroup moving the roots nonzero on {1}, <{2}> lies outside Gamma^{1}."""
    system = build(rst("A", 2))
    moved_by_1 = system.nonzero_on(0b01)
    assert is_admissible(system, IndexSet.of(1))
    walk = gamma._echelon_bases

    def moving(moved):  # the walk's bases, each carrying the moved roots moved(basis)
        return lambda *args: ((basis, moved(basis)) for basis, _ in walk(*args))

    # only <e> and <{1}> form a triple with {1}: both lie inside Gamma^{1}
    monkeypatch.setattr(
        gamma, "_echelon_bases", moving(lambda basis: moved_by_1 if set(basis) <= {0b01} else 0)
    )
    assert verify_maximality_proposition(system)
    # every subgroup forms a triple with {1}, <{2}> and <{1}, {2}> too
    monkeypatch.setattr(gamma, "_echelon_bases", moving(lambda basis: moved_by_1))
    assert not verify_maximality_proposition(system)


def product_scan(system):
    """The former scan, every subgroup against every non-empty I: its verdict,
    and the index sets some subgroup forms a triple with."""
    bases = [basis for basis, _ in _echelon_bases(range(system.rank), (0,) * system.rank)]
    scanned = [(gamma._moved_roots(system, b), reduce(or_, b, 0)) for b in bases]
    holds, paired = True, set()
    for m in range(1, 1 << system.rank):
        nonzero = system.nonzero_on(m)
        admissible = is_admissible(system, IndexSet(m))
        for moved, support in scanned:
            if moved == nonzero:
                paired.add(m)
                holds = holds and admissible and support & ~m == 0
    return holds, paired


@pytest.mark.parametrize("t", list(standard_types(5)), ids=str)
def test_maximality_lookup_matches_product_scan(monkeypatch, t):
    # the lookup asks is_admissible about exactly the index sets that the
    # product scan pairs with some subgroup, and reaches the same verdict
    system = build(t)
    holds, paired = product_scan(system)
    asked = set()

    def recorded(system, I):
        asked.add(I.mask)
        return is_admissible(system, I)

    monkeypatch.setattr(gamma, "is_admissible", recorded)
    assert verify_maximality_proposition(system) == holds
    assert asked == paired


def test_maximality_refuses_above_bound():
    with pytest.raises(ValueError, match="bounded at rank 8; A9 has rank 9"):
        verify_maximality_proposition(build(rst("A", 9)))
    assert verify_maximality_proposition(build(rst("A", 5)))


def test_minimal_triple_subgroups_flag_example():
    mins = minimal_triple_subgroups(build(rst("A", 4)), IndexSet.of(1, 2, 3))
    bases = [m.basis for m in mins]
    flag = subgroup_span([IndexSet.of(1, 3), IndexSet.of(2)], 4)
    assert flag.basis in bases
    assert all(m.order < 8 for m in mins)  # all strictly below gamma_full


def test_minimal_triple_subgroups_g2_and_a2():
    g2 = build(rst("G", 2))
    mins = minimal_triple_subgroups(g2, IndexSet.full(2))
    assert [m.basis for m in mins] == [gamma_full(IndexSet.full(2), 2).basis]
    a2 = build(rst("A", 2))
    assert [m.basis for m in minimal_triple_subgroups(a2, IndexSet.of(1))] == [(0b001,)]


def test_minimal_triple_subgroups_are_minimal_and_triples():
    system = build(rst("C", 4))
    I = IndexSet.of(2, 4)
    mins = minimal_triple_subgroups(system, I)
    assert mins, "an admissible set always has at least one triple subgroup"
    for sub in mins:
        assert is_triple(system, I, sub)
        assert all(J.issubset(I) for J in sub.elements)
    for a in mins:
        for b in mins:
            if a != b:
                assert not a.issubgroup_of(b)


def test_minimal_triple_subgroups_build_only_the_minima(monkeypatch):
    # candidates stay bare echelon bases, tested by the roots they move: only
    # the returned minima become GammaSubgroups, and is_triple is never asked
    built = []
    check = GammaSubgroup.__post_init__

    def counted(self):
        built.append(self.basis)
        check(self)

    def refuse(*args):
        raise AssertionError("a candidate went through the checked triple test")

    monkeypatch.setattr(GammaSubgroup, "__post_init__", counted)
    monkeypatch.setattr(gamma, "is_triple", refuse)
    monkeypatch.setattr(gamma, "triple_witness", refuse)
    mins = minimal_triple_subgroups(build(rst("A", 7)), IndexSet.of(1, 2, 4, 5, 6, 7))
    assert len(mins) == 100
    assert built == [m.basis for m in mins]


def brute_force_minimal_triples(system, I):
    """Lift every element of every subgroup of F_2^|I|, span, test by definition."""
    positions = list(I)
    vanishing = vanishing_roots(system, I)
    triples = []
    for small in all_subgroups(len(positions)):
        lifted = [
            IndexSet.from_iterable(positions[t - 1] for t in J) for J in small.elements
        ]
        sub = subgroup_span(lifted, system.rank)
        if fixed_root_set_by_definition(system, sub).roots == vanishing:
            triples.append(frozenset(J.mask for J in sub.elements))
    return {s for s in triples if not any(t < s for t in triples)}


@pytest.mark.parametrize("fam,r", [("A", 4), ("C", 4), ("D", 5), ("B", 7)])
def test_minimal_triple_subgroups_match_brute_force(fam, r):
    system = build(rst(fam, r))
    n_sets = 0
    for I in enumerate_admissible(system):
        if len(I) > 6:
            continue
        mins = minimal_triple_subgroups(system, I)
        assert {frozenset(J.mask for J in s.elements) for s in mins} == (
            brute_force_minimal_triples(system, I)
        )
        assert len(set(mins)) == len(mins)
        assert mins == sorted(mins, key=lambda s: (s.dim, s.basis))
        for s in mins:
            assert s.basis == _reduced_echelon(J.mask for J in s.elements)
        n_sets += 1
    assert n_sets > 0


def test_minimal_triple_subgroups_requires_admissible():
    with pytest.raises(ValueError, match="not admissible"):
        minimal_triple_subgroups(build(rst("B", 3)), IndexSet.of(2))
