"""The roots and subgroups against the constructions they replaced.

roots._raise_simple_roots, gamma._reduced_echelon and the subspace walk
behind all_subgroups and minimal_triple_subgroups each replaced an older
construction: a root-string walk, a two-phase elimination, and a bit counter
decoded into echelon rows with a lift table for Gamma^I.  Those are kept here
as oracles, and the library must give exactly what they give, order included.
"""

import random
from itertools import combinations

import pytest

from rspaces.admissible import enumerate_admissible
from rspaces.gamma import (
    GammaSubgroup,
    _reduced_echelon,
    all_subgroups,
    is_triple,
    minimal_triple_subgroups,
)
from rspaces.roots import RootSystemType, build, cartan_matrix
from rspaces.verify import standard_types


def string_closure(cartan):
    """Positive roots by root strings: b + alpha_j is a root iff p - <b, alpha_j^vee> >= 1,
    p being the number of steps b - alpha_j, b - 2 alpha_j, ... that stay roots."""
    r = len(cartan)
    roots = {tuple(1 if k == j else 0 for k in range(r)): cartan[j] for j in range(r)}
    current = dict(roots)
    while current:
        nxt = {}
        for beta, pairings in current.items():
            for j, pairing in enumerate(pairings):
                p = 0
                lower = list(beta)
                while True:
                    lower[j] -= 1
                    if lower[j] < 0 or tuple(lower) not in roots:
                        break
                    p += 1
                if p - pairing >= 1:
                    new = list(beta)
                    new[j] += 1
                    cand = tuple(new)
                    if cand not in roots:
                        roots[cand] = nxt[cand] = tuple(a + c for a, c in zip(pairings, cartan[j]))
        current = nxt
    return set(roots)


def oracle_roots(rst):
    roots = string_closure(cartan_matrix(rst))
    if rst.family == "BC":
        roots |= {tuple(2 * c for c in root) for root in roots if root[-1] == 1}
    return tuple(sorted(roots))


def cartan_from_strings(roots, r):
    """[k][j] = <alpha_k, alpha_j^vee> = -q for the longest string alpha_k, ..., alpha_k + q alpha_j."""
    root_set = set(roots)
    m = [[2] * r for _ in range(r)]
    for k in range(r):
        for j in range(r):
            if k != j:
                q = 0
                while tuple(int(i == k) + (q + 1) * int(i == j) for i in range(r)) in root_set:
                    q += 1
                m[k][j] = -q
    return tuple(map(tuple, m))


ROOT_TYPES = [
    RootSystemType(fam, r)
    for fam, ranks in (
        ("A", range(1, 13)), ("B", range(2, 13)), ("C", range(2, 13)), ("D", range(4, 13)),
        ("E", (6, 7, 8)), ("F", (4,)), ("G", (2,)), ("BC", range(1, 13)), ("A", (64,)),
    )
    for r in ranks
]


@pytest.mark.parametrize("rst", ROOT_TYPES, ids=str)
def test_roots_match_string_closure(rst):
    system = build(rst)
    roots = oracle_roots(rst)
    assert system.positive_roots == roots
    assert system.cartan == cartan_from_strings(roots, rst.rank)
    for j in range(rst.rank):
        assert system.odd_columns[j] == sum(1 << i for i, c in enumerate(roots) if c[j] % 2)
        assert system.support_columns[j] == sum(1 << i for i, c in enumerate(roots) if c[j])


def two_phase_echelon(masks):
    """Insert each mask by its lowest bit, then clear every pivot from the other rows."""
    rows = {}
    for m in masks:
        cur = m
        while cur:
            p = cur & -cur
            if p in rows:
                cur ^= rows[p]
            else:
                rows[p] = cur
                break
    pivots = sorted(rows)
    for p in pivots:
        for q in pivots:
            if q != p and rows[q] & p:
                rows[q] ^= rows[p]
    return tuple(rows[p] for p in pivots)


def test_reduced_echelon_matches_two_phase_elimination():
    rng = random.Random(20260901)
    draws = 0
    for _ in range(12000):
        rank = rng.randint(1, 10)
        masks = [
            rng.choice((0, 1 << rng.randrange(rank), rng.getrandbits(rank)))
            for _ in range(rng.randint(0, 9))
        ]
        if masks and rng.random() < 0.3:
            masks.append(rng.choice(masks))  # a repeated mask
        rng.shuffle(masks)
        assert _reduced_echelon(masks) == two_phase_echelon(masks), masks
        draws += 1
    assert draws >= 10**4
    assert _reduced_echelon([]) == _reduced_echelon([0, 0]) == ()


def counter_bases(rank):
    """Reduced echelon bases of F_2^rank, each read off a counter over its free bits."""
    for k in range(rank + 1):
        for pivots in combinations(range(rank), k):
            free = [[q for q in range(p + 1, rank) if q not in pivots] for p in pivots]
            total = sum(len(f) for f in free)
            for bits in range(1 << total):
                rows = []
                off = 0
                for p, positions in zip(pivots, free):
                    m = 1 << p
                    for q in positions:
                        if (bits >> off) & 1:
                            m |= 1 << q
                        off += 1
                    rows.append(m)
                yield tuple(rows)


@pytest.mark.parametrize("rank, count", enumerate((1, 2, 5, 16, 67, 374, 2825)))
def test_all_subgroups_match_counter_decode(rank, count):
    subs = list(all_subgroups(rank))
    assert [s.basis for s in subs] == list(counter_bases(rank))
    assert len(subs) == count and all(s.rank == rank for s in subs)


COUNTER_BASES = {k: list(counter_bases(k)) for k in range(7)}


def lifted_minimal_triples(system, I):
    """Minimal triple subgroups from the subgroups of F_2^|I|, lifted bit t -> index I[t]."""
    lift = [0]
    for p in I:
        lift += [m | 1 << (p - 1) for m in lift]
    triples = []
    for small in COUNTER_BASES[len(I)]:
        sub = GammaSubgroup(system.rank, tuple(lift[b] for b in small))
        if is_triple(system, I, sub):
            triples.append(sub)
    minimal = [s for s in triples if not any(t != s and t.issubgroup_of(s) for t in triples)]
    return sorted(minimal, key=lambda s: (s.dim, s.basis))


# BC has no admissible index set
@pytest.mark.parametrize("rst", [t for t in standard_types(7) if t.family != "BC"], ids=str)
def test_minimal_triple_subgroups_match_lift_table(rst):
    system = build(rst)
    sets = [I for I in enumerate_admissible(system) if len(I) <= 6]
    assert sets
    for I in sets:
        assert minimal_triple_subgroups(system, I) == lifted_minimal_triples(system, I), I
