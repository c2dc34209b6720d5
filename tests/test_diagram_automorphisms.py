"""Dynkin diagram automorphisms as a metamorphic oracle.

A permutation sigma of the simple roots that fixes the Cartan matrix maps
roots to roots (Humphreys, Introduction to Lie Algebras and Representation
Theory, 12.2).  So admissibility, the stabilizer order, the 2-number and the
level sizes of sigma(I) equal those of I, the orbit of sigma(I) is the orbit
of I with its coordinates permuted, and the minimal triple subgroups of
sigma(I) are those of I relabelled.  The orbit tree takes the least index
with a negative coordinate, so its walk depends on the labelling; these
checks confirm that its answers do not.

The automorphisms come from a search over partial maps, not from a table.
"""

import numpy as np
import pytest

from rspaces.admissible import IndexSet, is_admissible
from rspaces.antipodal import _opposition, orbit, stabilizer_order, two_number
from rspaces.gamma import minimal_triple_subgroups, subgroup_span
from rspaces.roots import build, standard_types

KEPT_POINTS = 20_000  # orbits whose sorted points are compared
# orbits whose level sizes are compared; the larger ones, mostly D8's, would add about 1 s
LEVEL_POINTS = 50_000
TRIPLE_SIZE = 5  # largest |I| whose minimal triple subgroups are compared


def automorphisms(cartan):
    """Every permutation s of 0..r-1 with cartan[s[i]][s[j]] == cartan[i][j], lexicographically.

    The map is extended one node at a time; an image is tried only if it keeps
    every entry between the new node and the nodes already mapped.
    """
    r = len(cartan)

    def extend(images):
        i = len(images)
        if i == r:
            yield tuple(images)
            return
        for image in range(r):
            trial = images + [image]
            if image not in images and all(
                cartan[trial[i]][trial[j]] == cartan[i][j]
                and cartan[trial[j]][trial[i]] == cartan[j][i]
                for j in range(i + 1)
            ):
                yield from extend(trial)

    return list(extend([]))


SYMMETRIES = {
    t: [s for s in automorphisms(build(t).cartan) if s != tuple(range(t.rank))]
    for t in standard_types()
}
SYMMETRIC_TYPES = [t for t, sigmas in SYMMETRIES.items() if sigmas]


def relabel(mask, sigma):
    """The image of an index-set mask under sigma: bit j moves to bit sigma[j]."""
    return sum(1 << sigma[j] for j in range(len(sigma)) if mask >> j & 1)


def test_search_finds_the_diagram_symmetries():
    # A2-A8 and D5-D8 flip their diagram, D4 has triality's five, E6 flips;
    # B, C, F, G and BC have an asymmetric Cartan matrix and only the identity
    assert [str(t) for t in SYMMETRIC_TYPES] == [
        *(f"A{r}" for r in range(2, 9)), *(f"D{r}" for r in range(4, 9)), "E6",
    ]
    assert {str(t): len(s) for t, s in SYMMETRIES.items() if len(s) > 1} == {"D4": 5}
    for t, sigmas in SYMMETRIES.items():
        eps = _opposition(build(t).cartan)  # the opposition is itself a diagram automorphism
        assert eps == tuple(range(t.rank)) or eps in sigmas, t


@pytest.mark.parametrize("t", SYMMETRIC_TYPES, ids=str)
def test_answers_do_not_depend_on_the_labelling(t):
    system, r = build(t), t.rank
    results = {}  # mask -> (admissible, stabilizer order, 2-number, level sizes)
    points = {}  # mask -> sorted orbit points, one walk giving both
    for mask in range(1, 1 << r):
        I = IndexSet(mask)
        admissible = is_admissible(system, I)
        entry = (admissible, stabilizer_order(system, I))
        if admissible:
            size, levels = two_number(system, I), None
            if size <= LEVEL_POINTS:
                res = orbit(system, I, enumerate=True, keep_elements=size <= KEPT_POINTS)
                levels = res.level_sizes
                if res.elements is not None:
                    points[mask] = res.elements.array
            entry += (size, levels)
        results[mask] = entry
    for sigma in SYMMETRIES[t]:
        for mask, entry in results.items():
            assert results[relabel(mask, sigma)] == entry, (t, sigma, IndexSet(mask))
        for mask, array in points.items():
            moved = np.empty_like(array)
            moved[:, list(sigma)] = array  # coordinate j of a point becomes coordinate sigma[j]
            moved = moved[np.lexsort(moved.T[::-1])]
            assert np.array_equal(moved, points[relabel(mask, sigma)]), (t, sigma, IndexSet(mask))


@pytest.mark.parametrize("t", SYMMETRIC_TYPES, ids=str)
def test_minimal_triples_relabel_with_the_labelling(t):
    system, r = build(t), t.rank
    minimal = {
        mask: minimal_triple_subgroups(system, IndexSet(mask))
        for mask in range(1, 1 << r)
        if mask.bit_count() <= TRIPLE_SIZE and is_admissible(system, IndexSet(mask))
    }
    for sigma in SYMMETRIES[t]:
        for mask, subgroups in minimal.items():
            relabelled = sorted(
                (subgroup_span([IndexSet(relabel(b, sigma)) for b in s.basis], r) for s in subgroups),
                key=lambda s: (s.dim, s.basis),
            )
            assert relabelled == minimal[relabel(mask, sigma)], (t, sigma, IndexSet(mask))
