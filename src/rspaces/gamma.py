"""Subgroups of the full involution group and the root-parity triple criterion.

Elements of the rank-r involution group are labeled by subsets J of
{1, ..., r}; the product of two elements is the symmetric difference of
their labels, so subgroups are GF(2)-linear subspaces of bitmask vectors.
A subgroup forms a compatible triple with the index set I exactly when the
positive roots that are even on every subgroup label coincide with the roots
vanishing on I.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import or_
from typing import Iterable, Iterator, Sequence

from .admissible import IndexSet, check_index_set, is_admissible
from .roots import Root, RootSystem

MAX_SCAN_RANK = 8  # 0.1-0.3 s per rank-8 scan; rank 9 has 8.3M subspaces, 20x rank 8
MAX_SUBSET_SIZE = 6  # |I| bound of minimal_triple_subgroups: 2,825 subspaces of Gamma^I


def _reduced_echelon(masks: Iterable[int]) -> tuple[int, ...]:
    """Reduced GF(2) row-echelon basis; pivot = lowest set bit, rows sorted by pivot."""
    rows: dict[int, int] = {}  # pivot bit -> row
    for m in masks:
        for p, row in rows.items():
            if m & p:
                m ^= row
        if m:
            p = m & -m
            for q, row in rows.items():
                if row & p:
                    rows[q] = row ^ m
            rows[p] = m
    return tuple(rows[p] for p in sorted(rows))


def _element_masks(basis: tuple[int, ...]) -> list[int]:
    """The masks of all 2^dim elements of the span of a basis (its XOR closure), sorted."""
    elems = [0]
    for b in basis:
        elems += [e ^ b for e in elems]
    return sorted(elems)


def _in_span(mask: int, basis: tuple[int, ...]) -> bool:
    cur = mask
    for b in basis:
        pivot = b & -b
        if cur & pivot:
            cur ^= b
    return cur == 0


@dataclass(frozen=True)
class GammaSubgroup:
    """A GF(2)-linear subgroup, given by its reduced echelon basis sorted by pivot.

    That basis is unique to the subspace, so two subgroups are equal, and hash
    equally, exactly when they are the same subgroup.  Build one with
    subgroup_span, gamma_full or all_subgroups; a basis given directly must
    already be reduced, or construction raises ValueError.
    """

    rank: int
    basis: tuple[int, ...]

    def __post_init__(self) -> None:
        # Scanned from the last row: with increasing pivots, only the pivots
        # of later rows can appear in a row above its own lowest bit.
        later = 0  # pivot bits of the rows after this one
        for b in reversed(self.basis):
            if not b or b >> self.rank:
                raise ValueError(f"basis row {b:#b} is zero or exceeds rank {self.rank}")
            if later and b & -b >= later & -later:
                raise ValueError("basis pivots (lowest set bits) must strictly increase")
            if b & later:
                raise ValueError("basis is not reduced: a pivot bit appears in another row")
            later |= b & -b

    @property
    def elements(self) -> tuple[IndexSet, ...]:
        """All 2^dim element labels, sorted by mask."""
        return tuple(map(IndexSet, _element_masks(self.basis)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def order(self) -> int:
        return 1 << self.dim

    def issubgroup_of(self, other: "GammaSubgroup") -> bool:
        return all(_in_span(b, other.basis) for b in self.basis)

    def __str__(self) -> str:
        gens = ", ".join(str(IndexSet(b)) for b in self.basis)
        return f"<{gens}>" if self.basis else "<e>"


def subgroup_span(generators: list[IndexSet] | tuple[IndexSet, ...], rank: int) -> GammaSubgroup:
    """GF(2) closure of the generators inside the rank-r involution group."""
    for g in generators:
        if g.mask >> rank:
            raise ValueError(f"generator {g} exceeds rank {rank}")
    return GammaSubgroup(rank, _reduced_echelon(g.mask for g in generators))


def gamma_full(I: IndexSet, rank: int) -> GammaSubgroup:
    """Gamma^I: the subgroup generated by all single-index involutions in I.

    The single bits of I, in ascending order, are already its reduced
    echelon basis.
    """
    if I.mask >> rank:
        j = next(j for j in I if j > rank)
        raise ValueError(f"generator {IndexSet.of(j)} exceeds rank {rank}")
    return GammaSubgroup(rank, tuple(1 << (j - 1) for j in I))


def all_subgroups(rank: int) -> Iterator[GammaSubgroup]:
    """Every GF(2) subgroup of the rank-r involution group, echelon-enumerated.

    Deterministic order by (dimension, pivot set, free bits); see _echelon_bases.
    """
    for basis, _ in _echelon_bases(range(rank), (0,) * rank):
        yield GammaSubgroup(rank, basis)


def _echelon_bases(positions: Sequence[int], odd_columns: Sequence[int]) -> Iterator[tuple[tuple[int, ...], int]]:
    """Reduced echelon bases of all subgroups of the span of the bits at increasing positions,
    each paired with the roots it moves: the OR of its rows' XORs of odd_columns.

    Each subspace appears exactly once via its unique reduced echelon basis:
    the row with pivot p has free bits only at later non-pivot positions, so
    the rows are reduced as built.  Order is by dimension, then pivot set,
    then free bits, the first row's lowest free bit varying fastest.
    """
    for k in range(len(positions) + 1):
        for pivots in combinations(positions, k):
            bases = [((), 0)]  # the rows of the later pivots, and the roots they move
            for p in reversed(pivots):
                rows = [(1 << p, odd_columns[p])]  # each with the XOR of its bits' odd columns
                for q in positions:
                    if q > p and q not in pivots:
                        rows += [(row | 1 << q, odd ^ odd_columns[q]) for row, odd in rows]
                step = (((row, *basis), moved | odd) for basis, moved in bases for row, odd in rows)
                # row 0 varies fastest; its step is yielded, not listed (4,096 bases at most at rank 8)
                bases = step if p == pivots[0] else list(step)
            yield from bases


@dataclass(frozen=True)
class FixedRootSet:
    """Positive roots even on every element label of a subgroup."""

    roots: tuple[Root, ...]

    def __len__(self) -> int:
        return len(self.roots)


def _check_subgroup_rank(system: RootSystem, subgroup: GammaSubgroup) -> None:
    if subgroup.rank != system.rank:
        raise ValueError(f"subgroup of rank {subgroup.rank} does not act on {system.type}")


def _moved_roots(system: RootSystem, basis: tuple[int, ...]) -> int:
    """Bitset of the roots odd on some basis label, i.e. outside the fixed root set."""
    moved = 0
    for b in basis:
        moved |= system.odd_on(b)
    return moved


def fixed_root_set(system: RootSystem, subgroup: GammaSubgroup) -> FixedRootSet:
    """Roots with even evaluation on xi_J for every J in the subgroup.

    Parity of the evaluation is GF(2)-linear in J, so checking the echelon
    basis is equivalent to checking all 2^dim elements; the test suite pins
    that equivalence against fixed_root_set_by_definition.
    """
    _check_subgroup_rank(system, subgroup)
    return FixedRootSet(system.roots_at(system.all_roots & ~_moved_roots(system, subgroup.basis)))


def fixed_root_set_by_definition(system: RootSystem, subgroup: GammaSubgroup) -> FixedRootSet:
    """Same set computed literally over every subgroup element; test oracle.

    Each root's odd mask from parity_masks is tested on the element masks,
    identity first, up to the first odd one; a kept root passed all 2^dim.
    It never reads odd_columns, odd_on, _moved_roots or fixed_root_set.
    """
    _check_subgroup_rank(system, subgroup)
    elements = _element_masks(subgroup.basis)
    keep = []
    for root, (odd, _) in zip(system.positive_roots, system.parity_masks):
        for m in elements:
            if (odd & m).bit_count() % 2:
                break
        else:
            keep.append(root)
    return FixedRootSet(tuple(keep))


def is_triple(system: RootSystem, I: IndexSet, subgroup: GammaSubgroup) -> bool:
    """Whether the subgroup's fixed root set equals the roots vanishing on I."""
    return triple_witness(system, I, subgroup) is None


def triple_witness(
    system: RootSystem, I: IndexSet, subgroup: GammaSubgroup
) -> Root | None:
    """The largest root separating the fixed set from the vanishing set, if any."""
    check_index_set(I, system.rank)
    _check_subgroup_rank(system, subgroup)
    # both sets are complements: of the moved roots, and of the roots nonzero on I
    differ = _moved_roots(system, subgroup.basis) ^ system.nonzero_on(I.mask)
    return system.positive_roots[differ.bit_length() - 1] if differ else None


def verify_maximality_proposition(system: RootSystem) -> bool:
    """Exhaustively confirm: every triple forces the subgroup inside Gamma^I and I admissible.

    A triple's subgroup moves exactly the roots nonzero on I, and those name I
    (alpha_j is nonzero on I iff j is in I): one lookup per subgroup.
    """
    r = system.rank
    if r > MAX_SCAN_RANK:
        raise ValueError(
            f"exhaustive subgroup scan is bounded at rank {MAX_SCAN_RANK}; "
            f"{system.type} has rank {r}"
        )
    named = {system.nonzero_on(m): m for m in range(1, 1 << r)}
    for basis, moved in _echelon_bases(range(r), system.odd_columns):
        m = named.get(moved, 0)
        # inside Gamma^I, every label inside I, exactly when its support (OR of rows) is
        if m and not (is_admissible(system, IndexSet(m)) and reduce(or_, basis, 0) & ~m == 0):
            return False
    return True


def minimal_triple_subgroups(system: RootSystem, I: IndexSet) -> list[GammaSubgroup]:
    """Inclusion-minimal subgroups of Gamma^I forming a triple with I, sorted by (dim, basis).

    Exploratory extension of the published single example, every subspace of
    Gamma^I walked.  A hyperplane of a triple, the kernel of a nonzero g on its
    rows, is again a triple unless some root's parity vector over the rows is g.
    """
    if not is_admissible(system, I):
        raise ValueError(f"{I} is not admissible for {system.type}")
    if len(I) > MAX_SUBSET_SIZE:
        raise ValueError(f"|I| = {len(I)} exceeds the subspace-enumeration bound {MAX_SUBSET_SIZE}")
    nonzero = system.nonzero_on(I.mask)
    minimal = []
    for basis, moved in _echelon_bases([j - 1 for j in I], system.odd_columns):
        if moved != nonzero:
            continue
        classes = [nonzero]  # split by parity on each row; all-even last, empty for a triple
        for row in basis:
            odd = system.odd_on(row)
            classes = [c & side for c in classes for side in (odd, ~odd)]
        if all(classes[:-1]):
            minimal.append(basis)
    return [GammaSubgroup(system.rank, b) for b in sorted(minimal, key=lambda b: (len(b), b))]
