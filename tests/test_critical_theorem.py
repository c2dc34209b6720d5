"""Triple subgroups counted by the critical theorem of Crapo and Rota.

For an admissible I with k = |I|, let P hold the distinct parity vectors
p_beta in F_2^k of the positive roots beta nonzero on I (bit i is beta's
coefficient at the i-th index of I, mod 2).  A subgroup of Gamma^I is a
triple exactly when no p_beta is orthogonal to all of it.  The critical
theorem (Crapo and Rota 1970; Kung 1996) counts the ordered j-tuples of
Gamma^I that leave no p_beta orthogonal to them all as chi_P(2^j), with
chi_P the characteristic polynomial of the binary matroid of P.  A j-tuple
spans a given d-dimensional subgroup in prod_{i<d} (2^j - 2^i) ways, so

    chi_P(2^j) = sum_d T_d prod_{i<d} (2^j - 2^i),

with T_d the number of triple subgroups of order 2^d.  The system is
triangular and gives every T_d.  P spans F_2^k (the simple roots in I give
the unit vectors), so chi_P counts in all of Gamma^I.

chi_P comes from deletion and contraction on the vectors alone; it reads
none of the library's subspace walk, moved-root sets or subgroups.
"""

from functools import cache
from itertools import zip_longest

import pytest

from rspaces.admissible import IndexSet, enumerate_admissible
from rspaces.gamma import _echelon_bases, minimal_triple_subgroups
from rspaces.roots import RootSystemType, build, standard_types

MAX_SIZE = 6  # largest |I| checked against the library's subspace walk
LEAST_SIZE = 5  # largest |I| whose least triple order is checked; |I| = 6 would add 0.7 s


@cache
def _root_masks(t):
    """The (odd, support) masks of each positive root of t, read from its coefficients."""
    return [
        (
            sum((c & 1) << p for p, c in enumerate(root)),
            sum((c != 0) << p for p, c in enumerate(root)),
        )
        for root in build(t).positive_roots
    ]


def parity_vectors(t, I):
    """The set P of distinct parity vectors, as a bitset: bit v is set when v is in P.

    A root nonzero on I gives the vector whose bit i is its coefficient at
    the i-th index of I, mod 2.
    """
    masked = {odd & I.mask for odd, support in _root_masks(t) if support & I.mask}
    return sum(1 << sum(1 << i for i, j in enumerate(I) if m >> (j - 1) & 1) for m in masked)


@cache
def _bit_clear(i, width):
    """The bitset of the vectors below 2^width whose bit i is clear."""
    return sum(1 << v for v in range(1 << width) if not v >> i & 1)


def _translate(vectors, t, width):
    """The bitset of {v ^ t : v in vectors}, for vectors below 2^width."""
    for i in range(width):
        if t >> i & 1:
            keep = _bit_clear(i, width)
            vectors = (vectors & keep) << (1 << i) | (vectors >> (1 << i)) & keep
    return vectors


@cache
def critical_polynomial(vectors, dim):
    """q^(dim - rank P) chi_P(q) as coefficients, lowest power first; P a bitset.

    It counts the linear maps F_2^dim -> F_2^j sending no vector of P to
    zero, at q = 2^j.  Deletion and contraction of the largest vector e:
    the maps that do not kill P \\ {e}, less those that also kill e.  The
    latter are the maps from F_2^dim / <e> (dimension dim - 1) that do not
    kill the images of P \\ {e}: e's top bit is cleared from every vector
    that has it by adding e.
    """
    if not vectors:
        return (0,) * dim + (1,)
    e = vectors.bit_length() - 1
    rest = vectors ^ 1 << e
    width = e.bit_length() - 1  # e's top bit; no vector has a higher one
    half = 1 << width  # vectors from half up have that bit
    quotient = rest & ((1 << half) - 1) | _translate(rest >> half, e ^ half, width)
    deleted, contracted = critical_polynomial(rest, dim), critical_polynomial(quotient, dim - 1)
    return tuple(a - b for a, b in zip_longest(deleted, contracted, fillvalue=0))


def evaluate(poly, q):
    return sum(c * q**n for n, c in enumerate(poly))


def triple_counts(poly, k):
    """T_0..T_k from chi_P(2^j) = sum_d T_d prod_{i<d} (2^j - 2^i), j = 0..k."""
    counts = []
    for j in range(k + 1):
        q = 1 << j
        spans = [1]  # spans[d] = prod_{i<d} (q - 2^i): the j-tuples that span one d-subgroup
        for i in range(j):
            spans.append(spans[-1] * (q - (1 << i)))
        rest = evaluate(poly, q) - sum(T * spans[d] for d, T in enumerate(counts))
        T, rem = divmod(rest, spans[j])
        assert rem == 0 and T >= 0, (poly, j)
        counts.append(T)
    return counts


def walked_triple_counts(system, I):
    """T_0..T_k by the library's walk: subspaces of Gamma^I that move exactly the roots nonzero on I."""
    counts = [0] * (len(I) + 1)
    nonzero = system.nonzero_on(I.mask)
    for basis, moved in _echelon_bases([j - 1 for j in I], system.odd_columns):
        if moved == nonzero:
            counts[len(basis)] += 1
    return counts


# BC is left out: its doubled roots 2e_i are even and nonzero on every I, so it has no admissible set
@pytest.mark.parametrize("t", [t for t in standard_types() if t.family != "BC"], ids=str)
def test_triple_counts_match_the_subspace_walk(t):
    system = build(t)
    for I in enumerate_admissible(system):
        if len(I) > MAX_SIZE:
            continue
        counts = triple_counts(critical_polynomial(parity_vectors(t, I), len(I)), len(I))
        assert counts == walked_triple_counts(system, I), (t, I)
        if len(I) <= LEAST_SIZE:
            least = next(d for d, T in enumerate(counts) if T)
            assert minimal_triple_subgroups(system, I)[0].dim == least, (t, I)


def test_e8_full_from_chi_alone():
    poly = critical_polynomial(parity_vectors(RootSystemType("E", 8), IndexSet.full(8)), 8)
    assert triple_counts(poly, 8) == [0, 0, 0, 0, 270, 2025, 1575, 135, 1]


def test_critical_polynomial_of_small_matroids():
    def bitset(*vectors):
        return sum(1 << v for v in vectors)

    # one vector: q - 1; a basis of F_2^2: (q - 1)^2; all of F_2^2 \ 0: (q - 1)(q - 2)
    assert critical_polynomial(bitset(1), 1) == (-1, 1)
    assert critical_polynomial(bitset(1, 2), 2) == (1, -2, 1)
    assert critical_polynomial(bitset(1, 2, 3), 2) == (2, -3, 1)
    # a spare dimension multiplies by q: q^(dim - rank P) chi_P(q)
    assert critical_polynomial(bitset(1), 2) == (0, -1, 1)
    # F_2^3 \ 0, the Fano plane: (q - 1)(q - 2)(q - 4)
    assert critical_polynomial(bitset(*range(1, 8)), 3) == (-8, 14, -7, 1)
