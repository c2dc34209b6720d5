"""Admissibility predicate, closed forms, and the classification reports."""

import json

import numpy as np
import pytest

from rspaces.admissible import (
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
from rspaces.roots import RootSystemType, build, coefficient


def rst(fam, r):
    return RootSystemType(fam, r)


# ---------------------------------------------------------------------------
# IndexSet value type


def test_index_set_basics():
    I = IndexSet.of(1, 3)
    assert I.mask == 0b101
    assert list(I) == [1, 3]
    assert len(I) == 2
    assert 1 in I and 3 in I and 2 not in I
    assert str(I) == "{1,3}"
    assert IndexSet.of(2, 2) == IndexSet.of(2)  # a repeated index is set once, not toggled
    assert IndexSet.of(1).issubset(I) and not I.issubset(IndexSet.of(1))
    assert IndexSet.full(4).mask == 0b1111
    assert not IndexSet(0)
    assert IndexSet().mask == 0 and not IndexSet() and list(IndexSet()) == []
    assert sorted([IndexSet.of(3), IndexSet.of(1, 2)]) == [IndexSet.of(1, 2), IndexSet.of(3)]


def test_index_set_rejects_bad_indices():
    with pytest.raises(ValueError):
        IndexSet.of(0)
    with pytest.raises(ValueError):
        IndexSet(-1)
    # a mask that is not an int is refused when built, not where it is first read
    for mask in (1.5, 2.0, np.int64(5)):
        with pytest.raises(ValueError, match="mask must be an int"):
            IndexSet(mask)
    # and so is an index that is not an int, before it is shifted into a mask
    for index in (1.0, "1"):
        with pytest.raises(ValueError, match="index must be an int"):
            IndexSet.of(index)


# ---------------------------------------------------------------------------
# the predicate itself


def naive_is_admissible(system, I):
    """Literal restatement with coefficient() loops; oracle for the bitmask path."""
    for root in system.positive_roots:
        values = [coefficient(root, i) for i in I]
        if all(v % 2 == 0 for v in values) and any(values):
            return False
    return True


@pytest.mark.parametrize(
    "fam,r", [("A", 4), ("B", 4), ("C", 4), ("D", 5), ("F", 4), ("G", 2), ("BC", 3), ("E", 6)]
)
def test_bitmask_predicate_matches_naive_restatement(fam, r):
    system = build(rst(fam, r))
    for m in range(1, 1 << r):
        I = IndexSet(m)
        assert is_admissible(system, I) == naive_is_admissible(system, I), str(I)


@pytest.mark.parametrize(
    "fam,r,indices,expected",
    [
        ("B", 3, (1, 2), True),
        ("B", 3, (2, 3), False),
        ("C", 4, (2, 4), True),
        ("G", 2, (1,), False),
        ("E", 6, (1, 4), False),
        ("E", 6, (1, 3), True),
        ("BC", 2, (1,), False),
        ("BC", 4, (1, 2, 3, 4), False),
    ],
)
def test_is_admissible_examples(fam, r, indices, expected):
    assert is_admissible(build(rst(fam, r)), IndexSet.of(*indices)) is expected


def test_empty_set_rejected():
    system = build(rst("A", 3))
    with pytest.raises(ValueError):
        is_admissible(system, IndexSet(0))
    with pytest.raises(ValueError):
        admissibility_witness(system, IndexSet(0))


def test_out_of_range_set_rejected():
    with pytest.raises(ValueError):
        is_admissible(build(rst("A", 3)), IndexSet.of(4))


def test_enumerate_examples():
    assert len(enumerate_admissible(build(rst("A", 3)))) == 7
    assert enumerate_admissible(build(rst("G", 2))) == [IndexSet.of(1, 2)]
    assert enumerate_admissible(build(rst("BC", 3))) == []


def test_enumerate_d5_structure():
    system = build(rst("D", 5))
    admissible = {I.mask for I in enumerate_admissible(system)}
    for m in range(1, 1 << 5):
        I = IndexSet(m)
        if I.issubset(IndexSet.of(2, 3)):
            assert m not in admissible, f"{I} is a subset of the interior"
        if m & IndexSet.of(4, 5).mask:
            assert m in admissible, f"{I} meets the fork"


def test_enumerate_sorted_no_duplicates():
    sets = enumerate_admissible(build(rst("D", 6)))
    masks = [I.mask for I in sets]
    assert masks == sorted(set(masks))


# ---------------------------------------------------------------------------
# closed forms and classification reports


@pytest.mark.parametrize(
    "fam,r,indices,expected",
    [
        ("F", 4, (1, 2, 4), True),
        ("F", 4, (1, 3), False),
        ("E", 7, (7,), True),
        ("E", 7, (1, 4, 6), False),
        ("E", 8, (2, 3, 5), False),
        ("E", 8, (8, 7), True),
        ("A", 5, (2, 4), True),
        ("B", 5, (1, 2, 3), True),
        ("B", 5, (1, 3), False),
        ("C", 5, (5,), True),
        ("C", 5, (1, 4), False),
        ("D", 6, (1, 2), True),
        ("D", 6, (2,), False),
        ("G", 2, (1, 2), True),
        ("BC", 5, (1, 2, 3, 4, 5), False),
    ],
)
def test_closed_form_examples(fam, r, indices, expected):
    assert closed_form(rst(fam, r), IndexSet.of(*indices)) is expected


def test_verify_classification_b6():
    report = verify_classification(rst("B", 6))
    assert report.closed_form_agrees
    chains = [IndexSet.from_iterable(range(1, k + 1)) for k in range(1, 7)]
    assert list(report.admissible_sets) == sorted(chains)


def test_verify_classification_c5():
    report = verify_classification(rst("C", 5))
    assert report.closed_form_agrees
    assert len(report.admissible_sets) == 16
    assert all(5 in I for I in report.admissible_sets)


def test_verify_classification_e6():
    report = verify_classification(rst("E", 6))
    assert report.closed_form_agrees
    assert not report.witness_discrepancies


def test_verify_classification_reports_discrepancies_by_increasing_mask(monkeypatch):
    # a closed form that admits nothing disagrees on every admissible set, so
    # the report lists exactly those, in the order of their masks
    monkeypatch.setattr("rspaces.admissible.closed_form", lambda rst, I: False)
    report = verify_classification(rst("A", 3))
    assert not report.closed_form_agrees
    assert [(I.mask, exp, got) for I, exp, got in report.witness_discrepancies] == [
        (mask, False, True) for mask in range(1, 8)
    ]


def test_report_dict_and_markdown():
    report = verify_classification(rst("G", 2))
    d = report.to_dict()
    assert d["admissible_sets"] == [[1, 2]]
    assert d["closed_form_agrees"] is True
    assert json.dumps(d)  # serializable
    md = report.to_markdown()
    assert "| {1,2} | 2 |" in md


# ---------------------------------------------------------------------------
# structural consequences


@pytest.mark.parametrize("fam,r", [("G", 2), ("D", 6), ("BC", 4), ("E", 7), ("A", 6)])
def test_union_closure_examples(fam, r):
    assert is_union_closed(build(rst(fam, r)))


def test_non_monotone_witnesses_in_e6():
    """Admissibility is not monotone under inclusion, in either direction."""
    system = build(rst("E", 6))
    # admissible set with a non-admissible superset
    assert is_admissible(system, IndexSet.of(1))
    assert not is_admissible(system, IndexSet.of(1, 4))
    # non-admissible set with an admissible superset
    assert not is_admissible(system, IndexSet.of(4))
    assert is_admissible(system, IndexSet.of(2, 4))
    # and confirm these witnesses by brute-force rescan of the definition
    assert naive_is_admissible(system, IndexSet.of(1))
    assert not naive_is_admissible(system, IndexSet.of(1, 4))


def test_full_set_examples():
    assert full_set_admissible_iff_reduced(rst("E", 8)) is True
    assert full_set_admissible_iff_reduced(rst("A", 1)) is True
    assert full_set_admissible_iff_reduced(rst("BC", 2)) is False
    assert find_all_even_root(build(rst("BC", 2))) == (2, 2)
    assert find_all_even_root(build(rst("E", 8))) is None


def test_bc_witness_is_2e1():
    for r in range(1, 9):
        assert find_all_even_root(build(rst("BC", r))) == tuple([2] * r)


def test_extrinsic_indices():
    assert extrinsic_symmetric_indices(build(rst("A", 5))) == IndexSet.full(5)
    assert extrinsic_symmetric_indices(build(rst("B", 4))) == IndexSet.of(1)
    assert extrinsic_symmetric_indices(build(rst("E", 7))) == IndexSet.of(7)
    assert extrinsic_symmetric_indices(build(rst("BC", 3))) == IndexSet(0)


def test_extrinsic_subsets_admissible():
    for fam, r in [("A", 6), ("B", 5), ("C", 5), ("D", 6), ("E", 6), ("E", 7)]:
        system = build(rst(fam, r))
        ext = extrinsic_symmetric_indices(system)
        for m in range(1, 1 << r):
            I = IndexSet(m)
            if I.issubset(ext):
                assert is_admissible(system, I), f"{fam}{r} {I}"


def test_witness_root_is_even_and_nonzero():
    system = build(rst("B", 3))
    I = IndexSet.of(2, 3)
    w = admissibility_witness(system, I)
    assert w is not None and w in system.positive_roots
    values = [coefficient(w, i) for i in I]
    assert all(v % 2 == 0 for v in values) and any(values)
    assert admissibility_witness(system, IndexSet.of(1, 2)) is None
