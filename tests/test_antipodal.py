"""Weyl orbits, parabolic stabilizers, and antipodal cardinalities."""

import bisect
import math
import pickle
import random
import sys
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from rspaces import antipodal
from rspaces.admissible import IndexSet, enumerate_admissible, is_admissible
from rspaces.antipodal import (
    DEFAULT_ORBIT_BUDGET,
    OrbitPoints,
    _opposition,
    _orbit_bfs,
    _orbit_walk,
    _sorted_points,
    _tree_depth,
    _walk_arrays,
    elements_to_bytes,
    orbit,
    reflect,
    stabilizer_order,
    two_number,
    weyl_group_order,
    xi_vector,
)
from rspaces.roots import RootSystemType, build
from rspaces.verify import standard_types


def rst(fam, r):
    return RootSystemType(fam, r)


_NAIVE_ORBITS = {}  # (type, start) -> levels: two tests walk the same E6 starts


def naive_orbit(system, start):
    """Plain BFS applying every reflection with a global seen-set; oracle.

    Returns the BFS levels as tuples: level n holds the points at distance n
    from start.
    """
    key = (system.type, start)
    if key not in _NAIVE_ORBITS:
        seen = {start}
        levels = [[start]]
        while levels[-1]:
            nxt = []
            for v in levels[-1]:
                for j in range(1, system.rank + 1):
                    w = reflect(v, j, system)
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            levels.append(nxt)
        _NAIVE_ORBITS[key] = tuple(map(tuple, levels[:-1]))
    return _NAIVE_ORBITS[key]


def tree_bfs_by_rule(system, start):
    """The orbit tree built child-first, then filtered by the parent rule; oracle.

    Every child s_j v with v_j > 0 is built in full, and kept only if its
    coordinates before j are all >= 0.  Returns the level sizes and the
    lexicographically sorted int16 points.
    """
    cols = np.array(system.cartan, dtype=np.int16).T.copy()  # cols[j] = C[:, j]
    level = np.array([start], dtype=np.int16)
    sizes, collected = [], []
    while len(level):
        sizes.append(len(level))
        collected.append(level)
        children = []
        for j in range(system.rank):
            sel = level[level[:, j] > 0]
            child = sel - np.outer(sel[:, j], cols[j])
            children.append(child[(child[:, :j] >= 0).all(axis=1)])
        level = np.vstack(children)
    points = np.vstack(collected)
    return sizes, points[np.lexsort(points.T[::-1])]


def poincare(roots):
    """Coefficients of prod [ht a + 1]_t / [ht a]_t, where [n]_t = 1 + t + ... + t^(n-1).

    Over all positive roots this is the Poincare polynomial W(t) of the Weyl
    group (Macdonald 1972); over the roots not vanishing on I it is
    W(t) / W_J(t), whose coefficient n counts the minimal coset
    representatives of length n.  The division is exact integer long
    division by a monic polynomial, asserted to leave no remainder.
    """

    def times(poly, n):  # poly * [n]_t
        out = [0] * (len(poly) + n - 1)
        for i, c in enumerate(poly):
            for k in range(n):
                out[i + k] += c
        return out

    num = den = [1]
    for root in roots:
        num = times(num, sum(root) + 1)
        den = times(den, sum(root))
    quotient = [0] * (len(num) - len(den) + 1)
    for i in reversed(range(len(quotient))):
        quotient[i] = c = num[i + len(den) - 1]
        for k, d in enumerate(den):
            num[i + k] -= c * d
    assert not any(num)
    return quotient


def height_product(roots):
    """prod (ht a + 1) / ht a over the given roots; the Weyl order of their system."""
    return sum(poincare(roots))


def odd_roots(system):
    """Positive roots with an odd coefficient: all of them but BC's doubled 2e_i."""
    return [root for root, (odd, _) in zip(system.positive_roots, system.parity_masks) if odd]


# ---------------------------------------------------------------------------
# reflections


def test_reflect_a2_example():
    assert reflect((1, 0), 1, build(rst("A", 2))) == (-1, 1)


def test_reflect_fixes_origin_and_walls():
    system = build(rst("F", 4))
    assert reflect((0, 0, 0, 0), 2, system) == (0, 0, 0, 0)
    v = (3, 0, -1, 2)
    assert reflect(v, 2, system) == v  # v_2 = 0 lies on the wall


def test_reflect_involution():
    for fam, r in [("A", 3), ("B", 4), ("C", 3), ("D", 4), ("G", 2), ("F", 4), ("BC", 3)]:
        system = build(rst(fam, r))
        v = tuple(((-1) ** k) * (k + 1) for k in range(r))
        for j in range(1, r + 1):
            assert reflect(reflect(v, j, system), j, system) == v


def test_reflect_index_errors():
    system = build(rst("A", 2))
    with pytest.raises(IndexError):
        reflect((1, 0), 0, system)
    with pytest.raises(IndexError):
        reflect((1, 0), 3, system)


def test_xi_vector():
    assert xi_vector(IndexSet.of(1, 3), 4) == (1, 0, 1, 0)
    assert xi_vector(IndexSet.full(2), 2) == (1, 1)


# ---------------------------------------------------------------------------
# orbit enumeration against the naive oracle and the order formula


@pytest.mark.parametrize(
    "fam,r",
    [("A", 1), ("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4), ("BC", 2), ("E", 6)],
)
def test_orbit_matches_naive_bfs(fam, r):
    system = build(rst(fam, r))
    for m in (1, (1 << r) - 1, 1 << (r // 2)):
        I = IndexSet(m)
        levels = naive_orbit(system, xi_vector(I, r))
        res = orbit(system, I, keep_elements=True)
        assert res.size == sum(map(len, levels))
        assert set(res.elements) == set().union(*levels)
        sizes, _ = _orbit_bfs(system, xi_vector(I, r), res.size, keep_elements=False)
        assert sizes == [len(level) for level in levels]


def test_orbit_examples():
    assert orbit(build(rst("A", 4)), IndexSet.of(2), enumerate=True).size == 10
    assert orbit(build(rst("G", 2)), IndexSet.full(2), enumerate=True).size == 12
    res = orbit(build(rst("A", 1)), IndexSet.of(1), keep_elements=True)
    assert res.size == 2 and res.elements == ((-1,), (1,))


def test_orbit_formula_only_by_default():
    res = orbit(build(rst("E", 7)), IndexSet.full(7))
    assert res.method == "order_formula"
    assert res.elements is None and res.level_sizes is None
    assert res.size == 2903040


def test_orbit_budget_refusal():
    res = orbit(build(rst("E", 8)), IndexSet.full(8), enumerate=True)
    assert res.method == "order_formula"
    assert res.budget_exceeded and res.level_sizes is None
    assert res.size == 696729600
    small = orbit(build(rst("A", 4)), IndexSet.full(4), enumerate=True, budget=10)
    assert small.budget_exceeded and small.size == 120
    with pytest.raises(ValueError):
        orbit(build(rst("A", 4)), IndexSet.of(1), budget=0)
    assert DEFAULT_ORBIT_BUDGET == 50_000_000


def test_orbit_budget_edges():
    """A budget of 1 is valid; the budget is the largest orbit that is enumerated."""
    system, I = build(rst("A", 2)), IndexSet.of(1)  # an orbit of 3 points
    assert orbit(system, I, enumerate=True, budget=1).budget_exceeded
    exact = orbit(system, I, enumerate=True, budget=3)
    assert exact.method == "both" and not exact.budget_exceeded and exact.level_sizes == (1, 1, 1)
    short = orbit(system, I, enumerate=True, budget=2)
    assert short.method == "order_formula" and short.budget_exceeded and short.size == 3


def test_orbit_result_invariants():
    system = build(rst("D", 5))
    for I in enumerate_admissible(system):
        res = orbit(system, I, enumerate=True)
        assert res.size * res.stabilizer_order == res.weyl_order
        assert res.method == "both"


def test_orbit_elements_sorted_unique_with_one_dominant():
    system = build(rst("B", 3))
    for m in range(1, 1 << 3):
        I = IndexSet(m)
        res = orbit(system, I, keep_elements=True)
        assert list(res.elements) == sorted(set(res.elements))
        dominant = [v for v in res.elements if all(c >= 0 for c in v)]
        assert dominant == [xi_vector(I, 3)]


@pytest.mark.parametrize("fam,r", [("F", 4), ("E", 6), ("C", 4), ("BC", 3), ("G", 2)])
def test_orbit_coordinate_bound(fam, r):
    # a coordinate alpha_j(w xi_I) is the partial height over I of the root w^-1 alpha_j,
    # so the largest |coordinate| is the partial height over I of the highest odd root
    system = build(rst(fam, r))
    highest = max(odd_roots(system), key=sum)
    for m in range(1, 1 << r):
        I = IndexSet(m)
        size = orbit(system, I).size
        _, points = _orbit_bfs(system, xi_vector(I, r), size, keep_elements=True)
        assert int(np.abs(points).max()) == sum(highest[j - 1] for j in I)


def test_root_heights_fit_int16():
    # the coordinate bound above is at most the largest root height: 29 (E8), or 2r for BC_r
    heights = {t: max(map(sum, build(t).positive_roots)) for t in standard_types()}
    assert len(heights) == 40
    assert max(h for t, h in heights.items() if t.family != "BC") == 29
    assert all(h == 2 * t.rank for t, h in heights.items() if t.family == "BC")
    assert max(heights.values()) <= 29 < np.iinfo(np.int16).max
    # the keep test forms v_k + |C[k][j]| * v_j: at most 29 + 3 * 29
    lift = max(-c for t in standard_types() for row in build(t).cartan for c in row)
    assert lift == 3
    assert max(heights.values()) * (1 + lift) == 116 <= np.iinfo(np.int8).max
    # so every standard type enumerates xi_I's orbit in int8 levels
    bounds = {t: level_bound(build(t), 1) for t in standard_types()}
    assert all(b <= np.iinfo(np.int8).max for b in bounds.values())
    assert max(bounds.values()) == bounds[rst("E", 8)] == 58


def level_bound(system, top):
    """(1 + max(1, max off-diagonal |C[k][j]|)) * largest root height * top start entry."""
    r = system.rank
    off = [abs(system.cartan[k][j]) for k in range(r) for j in range(r) if k != j]
    return (1 + max([1, *off])) * max(map(sum, system.positive_roots)) * top


@pytest.mark.parametrize(
    "fam,r,start,bound",
    [
        ("A", 63, xi_vector(IndexSet.of(1, 63), 63), 126),
        ("A", 64, xi_vector(IndexSet.of(1, 64), 64), 128),
        ("A", 1, (63,), 126),
        ("A", 1, (64,), 128),
        ("A", 2, (31, 31), 124),
        ("A", 2, (100, 100), 400),  # coordinates up to 200: int8 would wrap
        ("G", 2, (6, 6), 120),
        ("G", 2, (40, 40), 800),
    ],
)
def test_orbit_bfs_width_switch(fam, r, start, bound):
    # levels are int8 up to a bound of 127 and int16 above: both sides agree with the oracle
    system = build(rst(fam, r))
    assert level_bound(system, max(start)) == bound
    want_sizes, want_points = tree_bfs_by_rule(system, start)
    sizes, points = _orbit_bfs(system, start, sum(want_sizes), keep_elements=True)
    assert sizes == want_sizes
    assert points.dtype == np.int16 and points.flags.c_contiguous
    assert points.shape == want_points.shape and points.tobytes() == want_points.tobytes()


def test_orbit_bfs_refuses_values_beyond_int16():
    # a stand-in rank-1 system whose only root has height h: its levels need 2h;
    # the root is odd and nonzero on node 1, so the tree has depth 1
    def stand_in(h):
        return SimpleNamespace(
            type=f"X1(h={h})",
            rank=1,
            cartan=((2,),),
            highest_root=(h,),
            odd_columns=(1,),
            nonzero_on=lambda mask: 1,
        )

    for walk in (_orbit_bfs, _orbit_walk):
        sizes, points = walk(stand_in(16383), (1,), 2, keep_elements=True)
        assert sizes == [1, 1] and points.tolist() == [[-1], [1]]
        with pytest.raises(AssertionError, match="32768 do not fit in int16"):
            walk(stand_in(16384), (1,), 2, keep_elements=False)


def test_orbit_keep_elements_peak_memory():
    # the int8 points are sorted as 8-byte keys, and the walked int8 levels are
    # freed before the int16 result is allocated, so the peak (keys and
    # result) stays under twice the int16 result.  The warm-up, E6 {1,6}, runs
    # the numpy walk, numpy being loaded, and fills its caches
    system = build(rst("E", 6))
    assert orbit(system, IndexSet.of(1, 6), keep_elements=True).size == 270
    tracemalloc.start()
    try:
        res = orbit(system, IndexSet.full(6), keep_elements=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.elements.array.nbytes == 51840 * 6 * 2
    assert peak <= 2 * res.elements.array.nbytes


def lexsorted_with_mirror(buffer, m, eps):
    """The columns and the mirror -v[eps] of the first m, sorted by np.lexsort; oracle."""
    walked = buffer.astype(np.int16)
    points = np.concatenate([walked, -walked[eps, :m]], axis=1)
    return points[:, np.lexsort(points[::-1])].T


@pytest.mark.parametrize(
    "dtype, r",
    [(np.int8, r) for r in range(1, 11)] + [(np.int16, r) for r in (1, 2, 7, 8, 9, 10)],
)
@pytest.mark.parametrize("filled, m", [(1, 0), (2, 1), (300, 0), (300, 299), (257, 100)])
def test_sorted_points_match_lexsort(dtype, r, filled, m):
    # int8 buffers of rank <= 8 are sorted as packed uint64 keys, the rest by
    # np.lexsort: both give the oracle's bytes.  Values span the dtype's range
    # less its least value, which a mirror could not negate; half are drawn
    # from a few values, extremes included, so that points tie on leading
    # coordinates.  The walked points come split into up to four levels,
    # which the sort joins and takes from their list
    rng = np.random.default_rng(1000 * r + filled + m)
    top = int(np.iinfo(dtype).max)
    shape = (r, filled)
    few = rng.choice([-top, -top + 1, -1, 0, 1, top - 1, top], shape)
    buffer = np.where(rng.random(shape) < 0.5, few, rng.integers(-top, top + 1, shape))
    buffer = buffer.astype(dtype)
    eps = rng.permutation(r)
    want = lexsorted_with_mirror(buffer, m, eps)
    cuts = np.sort(rng.choice(np.arange(1, filled), min(3, filled - 1), replace=False))
    levels = np.split(buffer, cuts, axis=1)
    assert len(levels) == min(4, filled) and sum(level.shape[1] for level in levels) == filled
    got = _sorted_points(levels, m, eps)
    assert levels == []
    assert got.dtype == np.int16 and got.flags.c_contiguous and got.shape == (filled + m, r)
    assert got.tobytes() == want.tobytes()


def test_walk_arrays_are_cached_and_read_only():
    cartan = build(rst("G", 2)).cartan
    for dtype in (np.int8, np.int16):
        matrix, floor = _walk_arrays(cartan, dtype)
        again = _walk_arrays(cartan, dtype)
        assert again[0] is matrix and again[1] is floor
        assert matrix.dtype == floor.dtype == dtype
        assert matrix[:, :, 0].tolist() == [list(row) for row in cartan]
        assert floor[:, :, 0].tolist() == [[np.iinfo(dtype).min, 0], [np.iinfo(dtype).min] * 2]
        for array in (matrix, floor):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0, 0] = 1


@pytest.mark.parametrize(
    "fam, r, I",
    [
        # E6's largest walked level has 3,611 parents, one default block (3,640)
        ("E", 6, IndexSet.full(6)),
        ("F", 4, IndexSet.full(4)),
        ("G", 2, IndexSet.full(2)),
        ("A", 64, IndexSet.of(1, 64)),  # int16 levels
    ],
)
def test_orbit_blocks_leave_levels_and_points_unchanged(monkeypatch, fam, r, I):
    system = build(rst(fam, r))
    default = orbit(system, I, keep_elements=True)
    for parents in (1, 3):  # per block
        monkeypatch.setattr(antipodal, "BLOCK", parents * r * r)
        res = orbit(system, I, keep_elements=True)
        assert res.level_sizes == default.level_sizes
        assert res.elements.array.tobytes() == default.elements.array.tobytes()


def test_orbit_size_only_peak_memory():
    # children are formed a block of parents at a time, so besides the level
    # and its children the walk holds only block-sized temporaries.  The
    # warm-up, E7 {1,7}, runs the numpy walk, numpy being loaded
    system = build(rst("E", 7))
    assert orbit(system, IndexSet.of(1, 7), enumerate=True).size == 1512
    tracemalloc.start()
    try:
        res = orbit(system, IndexSet.full(7), enumerate=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(res.level_sizes) == 131046
    assert peak <= 4 * 7 * max(res.level_sizes)


def test_orbit_beyond_rank_64():
    # the keep test compares coordinates with a per-(k, j) floor, so no
    # 64-bit mask limits the rank
    res = orbit(build(rst("A", 64)), IndexSet.of(1, 64), enumerate=True)
    assert res.size == 65 * 64 and res.method == "both"


def test_orbit_rejects_empty_or_oversized():
    system = build(rst("A", 3))
    with pytest.raises(ValueError):
        orbit(system, IndexSet(0))
    with pytest.raises(ValueError):
        orbit(system, IndexSet.of(4))


# ---------------------------------------------------------------------------
# orders


def test_weyl_group_orders():
    assert weyl_group_order(rst("A", 3)) == 24
    assert weyl_group_order(rst("G", 2)) == 12
    assert weyl_group_order(rst("D", 4)) == 192
    assert weyl_group_order(rst("B", 5)) == 2**5 * 120
    assert weyl_group_order(rst("C", 5)) == weyl_group_order(rst("BC", 5))
    assert weyl_group_order(rst("E", 6)) == 51840
    assert weyl_group_order(rst("E", 7)) == 2903040
    assert weyl_group_order(rst("E", 8)) == 696729600
    assert weyl_group_order(rst("F", 4)) == 1152


@pytest.mark.parametrize("fam,r", [("A", 4), ("B", 4), ("C", 4), ("D", 5), ("G", 2), ("F", 4)])
def test_weyl_order_by_regular_orbit(fam, r):
    system = build(rst(fam, r))
    assert orbit(system, IndexSet.full(r), enumerate=True).size == weyl_group_order(rst(fam, r))


def test_stabilizer_examples():
    assert stabilizer_order(build(rst("A", 4)), IndexSet.of(2)) == 12
    assert stabilizer_order(build(rst("B", 5)), IndexSet.of(1)) == 384
    for fam, r in [("A", 5), ("C", 4), ("E", 6)]:
        assert stabilizer_order(build(rst(fam, r)), IndexSet.full(r)) == 1


def test_stabilizer_via_subdiagram_types():
    # the stabilizer of xi_I is the Weyl group of the subdiagram on the complement of I
    def check(fam, r, I, sub_fam, sub_r):
        system = build(rst(fam, r))
        assert stabilizer_order(system, IndexSet.of(*I)) == weyl_group_order(rst(sub_fam, sub_r))

    check("E", 8, (2,), "A", 7)
    check("E", 8, (1,), "D", 7)
    check("E", 7, (1,), "D", 6)
    check("E", 7, (7,), "E", 6)
    check("F", 4, (4,), "B", 3)
    check("F", 4, (1,), "C", 3)
    check("F", 4, (3, 4), "A", 2)
    check("F", 4, (1, 4), "B", 2)
    check("B", 5, (1,), "B", 4)
    check("B", 5, (4, 5), "A", 3)
    check("C", 5, (1,), "C", 4)
    check("G", 2, (2,), "A", 1)
    # the whole G2 diagram has an empty complement: compare the full height product
    g2 = build(rst("G", 2))
    assert height_product(g2.positive_roots) == weyl_group_order(rst("G", 2))


@pytest.mark.parametrize("t", standard_types(12), ids=str)
def test_height_product_is_weyl_order(t):
    # build() also checks its root count against positive_root_count
    assert height_product(odd_roots(build(t))) == weyl_group_order(t)


POINCARE_TYPES = (
    [("A", r) for r in range(1, 7)]
    + [(fam, r) for fam in ("B", "C") for r in range(2, 6)]
    + [("D", r) for r in range(4, 7)]
    + [("E", 6), ("F", 4), ("G", 2)]
    + [("BC", r) for r in range(1, 6)]
)


@pytest.mark.parametrize("fam,r", POINCARE_TYPES)
def test_orbit_levels_are_poincare_coefficients(fam, r):
    # level n of the tree holds the minimal coset representatives of length n;
    # every orbit here has at most |W(E6)| = 51,840 points
    system = build(rst(fam, r))
    for m in range(1, 1 << r):
        I = IndexSet(m)
        res = orbit(system, I, enumerate=True)
        moving = [root for root in odd_roots(system) if any(root[j - 1] for j in I)]
        assert res.level_sizes == tuple(poincare(moving))
        assert "level_sizes" not in res.to_dict()


def test_orbit_to_dict_is_the_summary():
    # kept or not, a result's dict holds neither its points nor its level sizes
    summary = {"size", "weyl_order", "stabilizer_order", "method", "budget_exceeded"}
    system = build(rst("C", 3))
    for kwargs in ({}, {"enumerate": True}, {"keep_elements": True}, {"keep_elements": True, "budget": 1}):
        assert set(orbit(system, IndexSet.of(3), **kwargs).to_dict()) == summary


@pytest.mark.parametrize("fam,r", POINCARE_TYPES)
def test_orbit_bfs_matches_tree_rule_oracle(fam, r):
    # deciding each child from its parent keeps exactly the children that
    # building every child and filtering it keeps, level by level
    system = build(rst(fam, r))
    for m in range(1, 1 << r):
        start = xi_vector(IndexSet(m), r)
        want_sizes, want_points = tree_bfs_by_rule(system, start)
        sizes, points = _orbit_bfs(system, start, sum(want_sizes), keep_elements=True)
        assert sizes == want_sizes
        assert points.dtype == np.int16 and points.shape == want_points.shape
        assert points.tobytes() == want_points.tobytes()


@pytest.mark.parametrize("fam,r", POINCARE_TYPES)
def test_orbit_walk_matches_orbit_bfs(fam, r):
    # the pure-Python walk, called directly with numpy loaded, gives the numpy
    # walk's level sizes and point bytes on every orbit of up to 2,000 points
    system = build(rst(fam, r))
    for m in range(1, 1 << r):
        size = orbit(system, IndexSet(m)).size
        if size > 2000:
            continue
        start = xi_vector(IndexSet(m), r)
        want_sizes, want_points = _orbit_bfs(system, start, size, keep_elements=True)
        sizes, points = _orbit_walk(system, start, size, keep_elements=True)
        assert sizes == want_sizes
        assert points.readonly and points.format == "h" and points.shape == want_points.shape
        assert points.tobytes() == want_points.tobytes()
        assert _orbit_walk(system, start, size, keep_elements=False) == (want_sizes, None)


@pytest.mark.parametrize(
    "fam,r",
    [("A", 1), ("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4), ("BC", 2), ("E", 6)],
)
def test_orbit_walk_matches_naive_bfs(fam, r):
    system = build(rst(fam, r))
    for m in (1, (1 << r) - 1, 1 << (r // 2)):
        levels = naive_orbit(system, xi_vector(IndexSet(m), r))
        size = sum(map(len, levels))
        sizes, points = _orbit_walk(system, xi_vector(IndexSet(m), r), size, keep_elements=True)
        assert sizes == [len(level) for level in levels]
        assert list(OrbitPoints(points)) == sorted(set().union(*levels))


# ---------------------------------------------------------------------------
# the mirror: w0 maps tree level n onto level L - n as v -> -v[eps]


def diagram_opposition(t):
    """The opposition involution written out per diagram, 0-based (Bourbaki, Plates I-IX)."""
    r = t.rank
    eps = list(range(r))
    if t.family == "A":
        eps.reverse()
    elif t.family == "D" and r % 2:
        eps[-2:] = [r - 1, r - 2]
    elif t.family == "E" and r == 6:
        eps = [5, 1, 4, 3, 2, 0]  # 1 <-> 6 and 3 <-> 5; 2 and 4 fixed
    return tuple(eps)


@pytest.mark.parametrize("t", [*standard_types(), rst("A", 64)], ids=str)
def test_opposition_is_the_diagram_automorphism(t):
    assert _opposition(build(t).cartan) == diagram_opposition(t)


def test_tree_depth_counts_the_moving_roots():
    # the depth is the top level of the full tree walk
    for fam, r, I, depth in (("D", 7, (6,), 21), ("E", 6, (1, 3), 26), ("A", 8, (1,), 8)):
        system, start = build(rst(fam, r)), xi_vector(IndexSet.of(*I), r)
        want_sizes, _ = tree_bfs_by_rule(system, start)
        assert _tree_depth(system, start) == depth == len(want_sizes) - 1
    bc = build(rst("BC", 3))  # the doubled roots 2e_i are not counted
    assert _tree_depth(bc, (1, 1, 1)) == 9 == len(bc.positive_roots) - 3


def test_seam_check_catches_an_identity_opposition(monkeypatch):
    # eps reverses A8, so {1} is not fixed: mirroring by the identity fails at
    # the seam.  Both walks share the half tree and its seam check, so each is
    # called directly, keeping its points or not.
    system, I = build(rst("A", 8)), IndexSet.of(1)
    monkeypatch.setattr(antipodal, "_opposition", lambda cartan: tuple(range(len(cartan))))
    for walk in (_orbit_walk, _orbit_bfs):
        for keep in (False, True):
            with pytest.raises(AssertionError, match="misses its mirror"):
                walk(system, xi_vector(I, 8), orbit(system, I).size, keep_elements=keep)


@pytest.mark.parametrize("keep", [False, True])
@pytest.mark.parametrize("limit", [4, 6, 8])
def test_orbit_bfs_stops_past_its_limit(keep, limit):
    # A8 {1} has 9 points, one per level 0..8, of which levels 0..4 are walked:
    # a limit of 4 is passed in the walk, 6 and 8 only by the mirrored levels,
    # in the pure-Python walk as in the numpy one
    system, start = build(rst("A", 8)), xi_vector(IndexSet.of(1), 8)
    for walk in (_orbit_walk, _orbit_bfs):
        with pytest.raises(AssertionError, match=f"passed the predicted {limit} points"):
            walk(system, start, limit, keep_elements=keep)
        # a limit above the size bounds the walk, and no more
        sizes, points = walk(system, start, 20, keep_elements=keep)
        assert sizes == [1] * 9 and (points is None or points.shape == (9, 8))


@pytest.mark.parametrize("fam,r,I,depth", [("D", 7, (6,), 21), ("E", 6, (1, 3), 26)])
@pytest.mark.parametrize("off", [-1, 1])
def test_seam_check_catches_a_wrong_depth(monkeypatch, fam, r, I, depth, off):
    system, I = build(rst(fam, r)), IndexSet.of(*I)
    assert _tree_depth(system, xi_vector(I, r)) == depth
    monkeypatch.setattr(antipodal, "_tree_depth", lambda system, start: depth + off)
    # D7 {6} has 64 points and E6 {1,3} 432: both walks, each called
    # directly, check the same seam
    for walk in (_orbit_walk, _orbit_bfs):
        with pytest.raises(AssertionError, match="misses its mirror"):
            walk(system, xi_vector(I, r), orbit(system, I).size, keep_elements=False)


def test_stabilizer_matches_naive_orbit_quotient():
    types = [("B", 4), ("D", 5), ("F", 4), ("E", 6), ("BC", 4), ("C", 4), ("G", 2), ("A", 5)]
    for fam, r in types:
        system = build(rst(fam, r))
        w = weyl_group_order(rst(fam, r))
        for m in range(1, 1 << r):
            I = IndexSet(m)
            assert w % stabilizer_order(system, I) == 0
            assert orbit(system, I, enumerate=True).size * stabilizer_order(system, I) == w


# ---------------------------------------------------------------------------
# two-numbers


def test_two_number_examples():
    assert two_number(build(rst("A", 4)), IndexSet.of(2)) == 10
    assert two_number(build(rst("C", 3)), IndexSet.of(3)) == 8
    assert two_number(build(rst("G", 2)), IndexSet.full(2)) == 12


def test_two_number_multinomials_through_a12():
    # every I of A_n is admissible, and X_I is a partial flag manifold whose
    # 2-number is (n+1)! / prod d_i!, the d_i the gaps of 0 < I < n+1
    # (Chen and Nagano 1988; Takeuchi 1989)
    sets = 0
    for n in range(1, 13):
        system = build(rst("A", n))
        for m in range(1, 1 << n):
            cuts = [0, *IndexSet(m), n + 1]
            gaps = [b - a for a, b in zip(cuts, cuts[1:])]
            want = math.factorial(n + 1) // math.prod(map(math.factorial, gaps))
            assert two_number(system, IndexSet(m)) == want
            sets += 1
    assert sets == 8178


# seeded ranks for the |I| = 1 closed forms; only D also runs at rank 64
CLOSED_FORM_RANKS = (4, *sorted(random.Random(30).sample(range(5, 41), 3)))


@pytest.mark.parametrize(
    "fam, n", [(fam, n) for fam in "BCD" for n in CLOSED_FORM_RANKS] + [("D", 64)]
)
def test_two_number_closed_forms_of_one_node(fam, n):
    # the symmetric R-spaces with |I| = 1 outside A (Chen and Nagano 1988;
    # Takeuchi 1989): quadrics B_n {1} and D_n {1}, the Lagrangian
    # Grassmannian C_n {n} and the spinor varieties D_n {n-1} and {n}
    want = {
        "B": {1: 2 * n},
        "C": {n: 2**n},
        "D": {1: 2 * n, n - 1: 2 ** (n - 1), n: 2 ** (n - 1)},
    }[fam]
    system = build(rst(fam, n))
    assert {i: two_number(system, IndexSet.of(i)) for i in want} == want


def test_two_number_closed_forms_of_the_exceptional_types():
    e6 = build(rst("E", 6))
    assert two_number(e6, IndexSet.of(1)) == two_number(e6, IndexSet.of(6)) == 27
    assert two_number(build(rst("E", 7)), IndexSet.of(7)) == 56


def subdiagram_type(cartan, component):
    """The type of a connected Dynkin subdiagram, given by 0-based nodes; oracle.

    It reads only the component's size, its bonds C[k][j] * C[j][k] (1 single,
    2 double, 3 triple) and, for a simply laced branch, its arm lengths.  B and
    C have the same Weyl group, so a double bond's direction is not read.
    """
    n = len(component)
    near = {k: [j for j in component if j != k and cartan[k][j]] for k in component}
    bonds = {k: {cartan[k][j] * cartan[j][k] for j in near[k]} for k in component}
    if any(3 in b for b in bonds.values()):
        return rst("G", 2)
    if any(2 in b for b in bonds.values()):
        # F4 is the 4-chain whose double bond joins its two middle nodes
        interior = all(len(near[k]) == 2 for k in component if 2 in bonds[k])
        return rst("F", 4) if n == 4 and interior else rst("B", n)
    branch = [k for k in component if len(near[k]) == 3]
    if not branch:
        return rst("A", n)
    arms = []
    for j in near[branch[0]]:
        back, length = branch[0], 1
        while nxt := [i for i in near[j] if i != back]:
            back, j, length = j, nxt[0], length + 1
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return rst("D", n)
    assert arms[:2] == [1, 2], arms
    return rst("E", n)


def subdiagram_weyl_order(cartan, nodes):
    """The product of the Weyl group orders of the components on nodes (0-based); oracle."""
    order, left = 1, set(nodes)
    while left:
        component, todo = set(), [left.pop()]
        while todo:
            component.add(k := todo.pop())
            todo += [j for j in left if cartan[k][j]]
            left.difference_update(todo)
        order *= weyl_group_order(subdiagram_type(cartan, sorted(component)))
    return order


def test_stabilizer_and_two_number_by_subdiagram_products():
    # W_J is the product of the Weyl groups of the components of the Dynkin
    # subdiagram on J, the complement of I: typed by size, bonds and arms, it
    # gives stabilizer_order on every I of the 40 standard types, |W| / |W_J|
    # the 2-number on the admissible ones, and on the whole diagram |W|
    sets = admissible = 0
    for t in standard_types():
        system, r = build(t), t.rank
        w = weyl_group_order(t)
        assert subdiagram_weyl_order(system.cartan, range(r)) == w
        for m in range(1, 1 << r):
            I = IndexSet(m)
            order = subdiagram_weyl_order(system.cartan, [k for k in range(r) if not m >> k & 1])
            assert stabilizer_order(system, I) == order, (t, I)
            if is_admissible(system, I):
                assert two_number(system, I) == w // order, (t, I)
                admissible += 1
            sets += 1
    assert (sets, admissible) == (2960, 1393)


def test_two_number_requires_admissible():
    with pytest.raises(ValueError, match="not admissible"):
        two_number(build(rst("B", 3)), IndexSet.of(2))
    with pytest.raises(ValueError, match="not admissible"):
        two_number(build(rst("BC", 3)), IndexSet.of(1, 2, 3))


# ---------------------------------------------------------------------------
# binary dump


def test_elements_to_bytes_roundtrip():
    res = orbit(build(rst("C", 3)), IndexSet.of(3), keep_elements=True)
    raw = elements_to_bytes(res.elements)
    back = np.frombuffer(raw, dtype="<i2").reshape(-1, 3)
    assert [tuple(row) for row in back.tolist()] == list(res.elements)
    assert len(raw) == res.size * 3 * 2


# ---------------------------------------------------------------------------
# kept points: a read-only sequence of tuples over one int16 array


def test_orbit_points_sequence_contract():
    res = orbit(build(rst("E", 6)), IndexSet.full(6), keep_elements=True)
    pts = res.elements
    assert isinstance(pts, OrbitPoints) and len(pts) == res.size == 51840
    rows = [tuple(row) for row in pts.array.tolist()]
    assert list(pts) == rows  # iteration order spans several blocks
    assert pts[0] == rows[0] and pts[-1] == rows[-1] and pts[-51840] == rows[0]
    assert pts[5000] == rows[5000] and type(pts[5000][0]) is int
    assert pts[10:13] == tuple(rows[10:13])
    with pytest.raises(IndexError):
        pts[51840]
    v = rows[31337]
    assert bisect.bisect_left(pts, v) == 31337 and v in pts
    sample = random.Random(7).sample(pts, 16)
    assert all(pts[bisect.bisect_left(pts, w)] == w for w in sample)


def test_orbit_points_array_is_readonly_int16():
    res = orbit(build(rst("E", 6)), IndexSet.full(6), keep_elements=True)
    arr = res.elements.array
    assert arr.dtype == np.int16 and arr.flags.c_contiguous
    assert arr.shape == (51840, 6) and arr.nbytes == 51840 * 6 * 2
    with pytest.raises(ValueError):
        arr[0, 0] = 1
    with pytest.raises(ValueError):
        OrbitPoints(np.zeros((3, 2), dtype=np.int32))
    with pytest.raises(ValueError):
        OrbitPoints(np.zeros((3, 4), dtype=np.int16)[:, ::2])  # not C-contiguous
    with pytest.raises(ValueError):
        OrbitPoints(np.zeros(6, dtype=np.int16))  # not n x r


@pytest.mark.parametrize("loaded, want", [(True, "bbbb"), (False, "wwwb")])
def test_orbit_picks_its_walk_by_size_and_whether_numpy_is_loaded(monkeypatch, loaded, want):
    # the pure-Python walk takes an orbit only while numpy is not imported,
    # and then only up to COLD_ORBIT points; A4 {2}, {1,2}, {1,2,3} and full
    # have 10, 20, 60 and 120 points
    seen = []

    def recording(letter):
        def walk(system, start, limit, keep_elements):
            seen.append(letter)
            return _orbit_walk(system, start, limit, keep_elements)  # never imports numpy

        return walk

    monkeypatch.setattr(antipodal, "_orbit_walk", recording("w"))
    monkeypatch.setattr(antipodal, "_orbit_bfs", recording("b"))
    monkeypatch.setattr(antipodal, "COLD_ORBIT", 60)
    if not loaded:
        monkeypatch.delitem(sys.modules, "numpy")
    system = build(rst("A", 4))
    sizes = [orbit(system, IndexSet(m), enumerate=True).size for m in (0b10, 0b11, 0b111, 0b1111)]
    assert sizes == [10, 20, 60, 120]
    assert "".join(seen) == want


def test_small_orbit_points_array_is_a_readonly_view():
    # a process without numpy keeps a small orbit's points as the pure-Python
    # walk's packed bytes, not numpy's array: `array` is a read-only int16
    # view of them, the same memory on every read, and it pickles as an array
    system = build(rst("A", 4))
    sizes, packed = _orbit_walk(system, xi_vector(IndexSet.of(2), 4), 10, keep_elements=True)
    assert sum(sizes) == 10 and isinstance(packed, memoryview)
    points = OrbitPoints(packed)
    arr = points.array
    assert arr.dtype == np.int16 and arr.flags.c_contiguous and not arr.flags.writeable
    assert arr.shape == (10, 4) and np.shares_memory(arr, points.array)
    assert arr.tolist() == [list(v) for v in points]
    assert pickle.loads(pickle.dumps(points)) == points


def test_orbit_points_equal_and_hash_as_tuples():
    system = build(rst("D", 5))
    res = orbit(system, IndexSet.of(1, 2), keep_elements=True)
    again = orbit(system, IndexSet.of(1, 2), keep_elements=True)
    as_tuple = tuple(res.elements)
    assert res.elements == as_tuple and as_tuple == res.elements
    assert hash(res.elements) == hash(as_tuple)
    assert res.elements != as_tuple[:-1] and res.elements != list(as_tuple)
    assert res.elements == again.elements and res.elements is not again.elements
    assert res == again and hash(res) == hash(again)
    other = orbit(system, IndexSet.of(1, 3), keep_elements=True)
    assert res.elements != other.elements and res != other


def test_orbit_points_differ_by_bytes_shape_or_points():
    pts = orbit(build(rst("A", 2)), IndexSet.of(1), keep_elements=True).elements
    assert repr(pts) == "OrbitPoints(3 x 2 int16)"
    assert pts != OrbitPoints(pts.array[::-1].copy())  # same shape, other bytes
    assert pts != OrbitPoints(pts.array.reshape(2, 3).copy())  # same bytes, other shape
    assert pts != tuple((-a, -b) for a, b in pts)  # same length, other points


@pytest.mark.parametrize("m", [0b111111, 0b1])  # 51,840 and 27 points
def test_orbit_result_pickles_with_its_points(m):
    res = orbit(build(rst("E", 6)), IndexSet(m), keep_elements=True)
    back = pickle.loads(pickle.dumps(res))
    assert back == res and back.elements.array.tobytes() == res.elements.array.tobytes()
    assert not back.elements.array.flags.writeable


def test_orbit_result_hash_skips_points(monkeypatch):
    res = orbit(build(rst("E", 6)), IndexSet.full(6), keep_elements=True)

    def no_iter(self):
        raise AssertionError("hashing an OrbitResult iterated its points")

    monkeypatch.setattr(OrbitPoints, "__iter__", no_iter)
    bare = replace(res, elements=None)
    assert hash(res) == hash(bare) and res != bare


def test_elements_to_bytes_equals_points_as_int16():
    # the dump is a read-only byte view of the kept array, with no copy on a
    # little-endian host; its bytes are the tuples' as little-endian int16
    for fam, r, m in (("E", 6, 0b111111), ("C", 3, 0b100), ("A", 1, 1)):
        res = orbit(build(rst(fam, r)), IndexSet(m), keep_elements=True)
        raw = elements_to_bytes(res.elements)
        assert raw == np.array(tuple(res.elements), dtype="<i2").tobytes()
        assert len(raw) == res.size * r * 2
        assert isinstance(raw, memoryview) and raw.readonly and raw.format == "B"
        if np.little_endian:
            assert np.shares_memory(np.frombuffer(raw, dtype="<i2"), res.elements.array)


@pytest.mark.parametrize("m, size", [(0b111111, 51840), (0b1, 27)])
def test_elements_to_bytes_byteswaps_on_big_endian_hosts(monkeypatch, m, size):
    # on a big-endian host the native int16 points are packed little-endian;
    # run on this host's values, that packing gives the bytes of the native path
    res = orbit(build(rst("E", 6)), IndexSet(m), keep_elements=True)
    native = bytes(elements_to_bytes(res.elements))
    monkeypatch.setattr(antipodal.sys, "byteorder", "big")
    raw = elements_to_bytes(res.elements)
    assert raw.readonly and raw.format == "B" and len(raw) == size * 6 * 2
    assert raw == np.array(tuple(res.elements), dtype="<i2").tobytes() == native
