"""Root-system construction: counts, coefficients, independent coordinate oracles."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from rspaces.cli import FIXTURE_TYPES
from rspaces.roots import (
    FAMILIES,
    RootSystemError,
    RootSystemType,
    build,
    cartan_matrix,
    coefficient,
    evaluate_on_xi_sum,
    positive_root_count,
    standard_types,
    to_json,
)

DOCS = Path(__file__).resolve().parent.parent / "docs"


def rst(fam, r):
    return RootSystemType(fam, r)


# ---------------------------------------------------------------------------
# independent oracles: classical families from their Euclidean formulas


def ones(r, lo, hi):
    """Coefficient vector with 1 at positions lo..hi (1-based, inclusive)."""
    return tuple(1 if lo <= p <= hi else 0 for p in range(1, r + 1))


def add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def oracle_a(r):
    return {ones(r, j, k - 1) for j in range(1, r + 2) for k in range(j + 1, r + 2)}


def oracle_b(r):
    roots = set()
    for j in range(1, r + 1):
        roots.add(ones(r, j, r))  # e_j
    for j in range(1, r + 1):
        for k in range(j + 1, r + 1):
            roots.add(ones(r, j, k - 1))  # e_j - e_k
            roots.add(add(ones(r, j, k - 1), tuple(2 * c for c in ones(r, k, r))))  # e_j + e_k
    return roots


def oracle_c(r):
    roots = set()
    for j in range(1, r + 1):
        two_ej = add(tuple(2 * c for c in ones(r, j, r - 1)), ones(r, r, r))
        roots.add(two_ej)
    for j in range(1, r + 1):
        for k in range(j + 1, r + 1):
            roots.add(ones(r, j, k - 1))
            ejk = add(ones(r, j, k - 1), tuple(2 * c for c in ones(r, k, r - 1)))
            roots.add(add(ejk, ones(r, r, r)))
    return roots


def oracle_d(r):
    roots = set()
    for j in range(1, r + 1):
        for k in range(j + 1, r + 1):
            roots.add(ones(r, j, k - 1))  # e_j - e_k
    for j in range(1, r):
        for k in range(j + 1, r):
            v = add(ones(r, j, k - 1), tuple(2 * c for c in ones(r, k, r - 2)))
            roots.add(add(v, add(ones(r, r - 1, r - 1), ones(r, r, r))))  # e_j + e_k, k < r
    for j in range(1, r):
        roots.add(add(ones(r, j, r - 2), ones(r, r, r)))  # e_j + e_r
    return roots


def oracle_bc(r):
    # union of the B_r and C_r positive systems in the B coordinates
    # (alpha_r = e_r, so 2e_j doubles the e_j vector)
    roots = set(oracle_b(r)) if r >= 2 else {ones(1, 1, 1)}
    for j in range(1, r + 1):
        roots.add(tuple(2 * c for c in ones(r, j, r)))
    return roots


def solve_coefficients(simple_vectors, target):
    """Exact solve of sum(c_j * alpha_j) = target by Gaussian elimination."""
    n = len(simple_vectors)
    aug = [[Fraction(simple_vectors[j][i]) for j in range(n)] + [Fraction(target[i])] for i in range(n)]
    col = 0
    for row in range(n):
        pivot = next(i for i in range(row, n) if aug[i][col] != 0)
        aug[row], aug[pivot] = aug[pivot], aug[row]
        factor = aug[row][col]
        aug[row] = [x / factor for x in aug[row]]
        for i in range(n):
            if i != row and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[row])]
        col += 1
    return [aug[i][n] for i in range(n)]


def oracle_e8():
    """E8 positive roots from the Euclidean model, exact rational solve."""
    half = Fraction(1, 2)
    vectors = []
    for i in range(8):
        for j in range(i + 1, 8):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [Fraction(0)] * 8
                    v[i], v[j] = si, sj
                    vectors.append(tuple(v))
    for signs in range(256):
        v = tuple(half if (signs >> k) & 1 == 0 else -half for k in range(8))
        if sum(1 for x in v if x < 0) % 2 == 0:
            vectors.append(v)
    assert len(vectors) == 240
    simple = [
        (half, -half, -half, -half, -half, -half, -half, half),  # alpha_1
        (1, 1, 0, 0, 0, 0, 0, 0),  # alpha_2
        (-1, 1, 0, 0, 0, 0, 0, 0),  # alpha_3
        (0, -1, 1, 0, 0, 0, 0, 0),  # alpha_4
        (0, 0, -1, 1, 0, 0, 0, 0),  # alpha_5
        (0, 0, 0, -1, 1, 0, 0, 0),  # alpha_6
        (0, 0, 0, 0, -1, 1, 0, 0),  # alpha_7
        (0, 0, 0, 0, 0, -1, 1, 0),  # alpha_8
    ]
    positives = set()
    for v in vectors:
        coeffs = solve_coefficients(simple, v)
        if all(c >= 0 for c in coeffs):
            assert all(c.denominator == 1 for c in coeffs)
            positives.add(tuple(int(c) for c in coeffs))
    return positives


def oracle_f4():
    half = Fraction(1, 2)
    vectors = []
    for i in range(4):
        for s in (1, -1):
            v = [Fraction(0)] * 4
            v[i] = s
            vectors.append(tuple(v))
        for j in range(i + 1, 4):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [Fraction(0)] * 4
                    v[i], v[j] = si, sj
                    vectors.append(tuple(v))
    for signs in range(16):
        vectors.append(tuple(half if (signs >> k) & 1 == 0 else -half for k in range(4)))
    assert len(vectors) == 48
    simple = [
        (0, 1, -1, 0),  # alpha_1
        (0, 0, 1, -1),  # alpha_2
        (0, 0, 0, 1),  # alpha_3
        (half, -half, -half, -half),  # alpha_4
    ]
    positives = set()
    for v in vectors:
        coeffs = solve_coefficients(simple, v)
        if all(c >= 0 for c in coeffs):
            assert all(c.denominator == 1 for c in coeffs)
            positives.add(tuple(int(c) for c in coeffs))
    return positives


CLASSICAL_ORACLES = {
    "A": (oracle_a, range(1, 9)),
    "B": (oracle_b, range(2, 9)),
    "C": (oracle_c, range(2, 9)),
    "D": (oracle_d, range(4, 9)),
    "BC": (oracle_bc, range(1, 9)),
}


@pytest.mark.parametrize("fam", sorted(CLASSICAL_ORACLES))
def test_classical_families_match_coordinate_oracle(fam):
    oracle, ranks = CLASSICAL_ORACLES[fam]
    for r in ranks:
        system = build(rst(fam, r))
        assert set(system.positive_roots) == oracle(r), f"{fam}{r}"


def test_e_types_match_euclidean_oracle():
    e8 = oracle_e8()
    assert set(build(rst("E", 8)).positive_roots) == e8
    e7 = {v[:7] for v in e8 if v[7] == 0}
    assert set(build(rst("E", 7)).positive_roots) == e7
    e6 = {v[:6] for v in e8 if v[6] == 0 and v[7] == 0}
    assert set(build(rst("E", 6)).positive_roots) == e6


def test_f4_matches_euclidean_oracle():
    assert set(build(rst("F", 4)).positive_roots) == oracle_f4()


def test_g2_exact_root_list():
    system = build(rst("G", 2))
    assert set(system.positive_roots) == {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}


# ---------------------------------------------------------------------------
# structural invariants


ALL_TYPES = (
    [rst("A", r) for r in range(1, 9)]
    + [rst("B", r) for r in range(2, 9)]
    + [rst("C", r) for r in range(2, 9)]
    + [rst("D", r) for r in range(4, 9)]
    + [rst("E", r) for r in (6, 7, 8)]
    + [rst("F", 4), rst("G", 2)]
    + [rst("BC", r) for r in range(1, 9)]
)


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_counts_and_basic_invariants(t):
    system = build(t)
    roots = system.positive_roots
    assert len(roots) == positive_root_count(t)
    assert len(set(roots)) == len(roots)
    assert roots == tuple(sorted(roots))
    for simple in system.simple_roots:
        assert simple in system.positive_roots
    # highest root dominates coefficient-wise
    for root in roots:
        assert all(c <= h for c, h in zip(root, system.highest_root))
    # duality of the simple roots against the dual basis
    for j in range(1, t.rank + 1):
        for k in range(1, t.rank + 1):
            assert coefficient(system.simple_roots[j - 1], k) == (1 if j == k else 0)


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_root_multiples(t):
    system = build(t)
    roots = set(system.positive_roots)
    doubled = {root for root in roots if tuple(2 * c for c in root) in roots}
    if t.reduced:
        assert not doubled
    else:
        # exactly the r short roots e_i come with their doubles
        assert len(doubled) == t.rank


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_parity_masks(t):
    system = build(t)
    assert len(system.parity_masks) == len(system.positive_roots)
    for root, (odd, sup) in zip(system.positive_roots, system.parity_masks):
        for j in range(1, t.rank + 1):
            c = coefficient(root, j)
            assert (odd >> (j - 1)) & 1 == c % 2
            assert (sup >> (j - 1)) & 1 == (c != 0)
    # only the doubled roots 2e_i of BC have no odd coefficient
    assert sum(odd == 0 for odd, _ in system.parity_masks) == (0 if t.reduced else t.rank)
    # the columns: bit i of column j-1 reads c_j of positive_roots[i]
    n = len(system.positive_roots)
    assert len(system.odd_columns) == len(system.support_columns) == t.rank
    for j in range(1, t.rank + 1):
        odd_column, support_column = system.odd_columns[j - 1], system.support_columns[j - 1]
        assert odd_column >> n == support_column >> n == 0
        for i, root in enumerate(system.positive_roots):
            c = coefficient(root, j)
            assert (odd_column >> i) & 1 == c % 2
            assert (support_column >> i) & 1 == (c != 0)
    assert system.all_roots == (1 << n) - 1
    assert system.roots_at(system.all_roots) == system.positive_roots


def test_build_is_cached():
    assert build(rst("E", 8)) is build(RootSystemType("E", 8))


def test_bc_is_union_of_b_and_c():
    # C_r coefficients are in the basis with alpha_r = 2e_r; in the shared BC
    # coordinates (alpha_r = e_r) the last coefficient doubles.
    for r in range(2, 9):
        bc = set(build(rst("BC", r)).positive_roots)
        b = set(build(rst("B", r)).positive_roots)
        c = {v[:-1] + (2 * v[-1],) for v in build(rst("C", r)).positive_roots}
        assert bc == b | c
        assert len(bc) == r * r + r


def test_highest_roots():
    assert build(rst("A", 5)).highest_root == (1, 1, 1, 1, 1)
    assert build(rst("B", 4)).highest_root == (1, 2, 2, 2)
    assert build(rst("C", 4)).highest_root == (2, 2, 2, 1)
    assert build(rst("D", 5)).highest_root == (1, 2, 2, 1, 1)
    assert build(rst("E", 8)).highest_root == (2, 3, 4, 6, 5, 4, 3, 2)
    assert build(rst("F", 4)).highest_root == (2, 3, 4, 2)
    assert build(rst("G", 2)).highest_root == (3, 2)
    assert build(rst("BC", 3)).highest_root == (2, 2, 2)


def test_build_examples_from_contract():
    assert build(rst("A", 1)).positive_roots == ((1,),)
    bc2 = build(rst("BC", 2))
    assert len(bc2.positive_roots) == 6
    assert (0, 1) in bc2.positive_roots and (0, 2) in bc2.positive_roots
    assert len(build(rst("E", 8)).positive_roots) == 120


def test_coefficient_examples():
    assert coefficient((3, 2), 1) == 3
    b3 = build(rst("B", 3))
    assert (1, 2, 2) in b3.positive_roots
    assert coefficient((1, 2, 2), 3) == 2
    with pytest.raises(IndexError):
        coefficient((1, 2, 2), 4)
    with pytest.raises(IndexError):
        coefficient((1, 2, 2), 0)


def test_evaluate_on_xi_sum():
    assert evaluate_on_xi_sum((1, 1, 1), [1, 3]) == 2
    assert evaluate_on_xi_sum((1, 1, 1), []) == 0
    assert evaluate_on_xi_sum((2, 3, 4, 2), [1, 2]) == 5


@pytest.mark.parametrize(
    "fam,bad_rank",
    [("A", 0), ("B", 1), ("C", 1), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("BC", 0)],
)
def test_rank_constraints(fam, bad_rank):
    with pytest.raises(RootSystemError):
        RootSystemType(fam, bad_rank)


def test_unknown_family():
    with pytest.raises(RootSystemError):
        RootSystemType("H", 4)


def test_families_in_order():
    assert FAMILIES == ("A", "B", "C", "D", "E", "F", "G", "BC")


# each family's admitted ranks up to 12, and its rank rule as the error (and so
# the CLI, on exit 2) states it
RANK_RULES = {
    "A": (range(1, 13), ">= 1"),
    "B": (range(2, 13), ">= 2"),
    "C": (range(2, 13), ">= 2"),
    "D": (range(4, 13), ">= 4"),
    "E": ((6, 7, 8), "in {6, 7, 8}"),
    "F": ((4,), "== 4"),
    "G": ((2,), "== 2"),
    "BC": (range(1, 13), ">= 1"),
}


@pytest.mark.parametrize("fam", [*RANK_RULES, "H"])
def test_rank_rule_messages(fam):
    valid, rule = RANK_RULES.get(fam, ((), None))
    for r in range(-1, 13):
        if r in valid:
            t = RootSystemType(fam, r)
            assert (t.family, t.rank) == (fam, r)
            continue
        with pytest.raises(RootSystemError) as exc:
            RootSystemType(fam, r)
        if rule is None:
            want = "unknown family 'H'; expected one of ('A', 'B', 'C', 'D', 'E', 'F', 'G', 'BC')"
        else:
            want = f"family {fam} requires rank {rule}, got {r}"
        assert str(exc.value) == want


@pytest.mark.parametrize("fam,rank", [("E", 6.0), ("A", True), ("A", False), ("A", "3"), ("B", None)])
def test_rank_must_be_int(fam, rank):
    # refused before the rank rule, which a float or bool would pass
    with pytest.raises(RootSystemError) as exc:
        RootSystemType(fam, rank)
    assert str(exc.value) == f"rank must be an int, got {rank!r}"


@pytest.mark.parametrize("max_rank", range(13))
def test_standard_types_read_the_family_table(max_rank):
    def by_trial():  # every family at every rank from 1 that its rank rule admits
        for fam in FAMILIES:
            for r in range(1, max_rank + 1):
                try:
                    yield RootSystemType(fam, r)
                except RootSystemError:
                    continue

    assert list(standard_types(max_rank)) == list(by_trial())


def test_type_and_system_str():
    # failure details of the acceptance criteria name types and systems this way
    assert str(rst("BC", 2)) == "BC2"
    assert str(build(rst("E", 6))) == "E6"


def test_reduced_flag():
    assert rst("A", 3).reduced and rst("E", 7).reduced
    assert not rst("BC", 3).reduced


def test_cartan_matrix_shapes():
    b3 = cartan_matrix(rst("B", 3))
    assert b3 == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
    c3 = cartan_matrix(rst("C", 3))
    assert c3 == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
    assert cartan_matrix(rst("G", 2)) == ((2, -1), (-3, 2))
    assert cartan_matrix(rst("BC", 3)) == b3
    assert cartan_matrix(rst("BC", 1)) == ((2,),)  # B_1 has no bond
    # D's fork at r-2 beyond D4
    assert cartan_matrix(rst("D", 5)) == (
        (2, -1, 0, 0, 0),
        (-1, 2, -1, 0, 0),
        (0, -1, 2, -1, -1),
        (0, 0, -1, 2, 0),
        (0, 0, -1, 0, 2),
    )
    # alpha_2 long, alpha_3 short
    assert cartan_matrix(rst("F", 4)) == ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2))
    # node 2 on node 4
    assert cartan_matrix(rst("E", 7)) == (
        (2, 0, -1, 0, 0, 0, 0),
        (0, 2, 0, -1, 0, 0, 0),
        (-1, 0, 2, -1, 0, 0, 0),
        (0, -1, -1, 2, -1, 0, 0),
        (0, 0, 0, -1, 2, -1, 0),
        (0, 0, 0, 0, -1, 2, -1),
        (0, 0, 0, 0, 0, -1, 2),
    )


@pytest.mark.parametrize("fixture_type", FIXTURE_TYPES, ids=str)
def test_golden_json_fixtures(fixture_type):
    system = build(fixture_type)
    path = DOCS / "roots" / f"{fixture_type}.json"
    assert path.exists(), f"golden fixture {path} missing"
    assert json.loads(path.read_text()) == json.loads(to_json(system))
    # byte-identical canonical serialization
    assert path.read_text() == to_json(system) + "\n"
