"""Admissibility of index sets via the root-coefficient parity criterion.

A non-empty subset I of {1, ..., r} is admissible when no positive root has
all of its I-coefficients even with at least one of them nonzero.  The
brute-force predicate here is the source of truth; closed_form transcribes
the known per-type answer and verify_classification confronts the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .roots import Root, RootSystem, RootSystemType, build


@dataclass(frozen=True, order=True)
class IndexSet:
    """A subset of {1, ..., r} stored as a bitmask (bit j-1 encodes index j)."""

    mask: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.mask, int):  # a float or numpy mask breaks len, iter and every fold
            raise ValueError(f"mask must be an int, got {self.mask!r}")
        if self.mask < 0:
            raise ValueError(f"negative mask {self.mask}")

    @classmethod
    def of(cls, *indices: int) -> "IndexSet":
        return cls.from_iterable(indices)

    @classmethod
    def from_iterable(cls, indices: Iterable[int]) -> "IndexSet":
        mask = 0
        for j in indices:
            if not isinstance(j, int):  # 1.0 and "1" would fail in << or < with a TypeError
                raise ValueError(f"index must be an int, got {j!r}")
            if j < 1:
                raise ValueError(f"indices are 1-based, got {j}")
            mask |= 1 << (j - 1)
        return cls(mask)

    @classmethod
    def full(cls, rank: int) -> "IndexSet":
        return cls((1 << rank) - 1)

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length()
            mask ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, j: int) -> bool:
        return j >= 1 and (self.mask >> (j - 1)) & 1 == 1

    def issubset(self, other: "IndexSet") -> bool:
        return self.mask & ~other.mask == 0

    def __str__(self) -> str:
        return "{" + ",".join(str(j) for j in self) + "}"


def check_index_set(I: IndexSet, rank: int) -> None:
    """Raise ValueError unless I is a non-empty subset of {1, ..., rank}."""
    if not I.mask:
        raise ValueError("index set must be non-empty")
    if I.mask >> rank:
        raise ValueError(f"index set {I} exceeds rank {rank}")


def is_admissible(system: RootSystem, I: IndexSet) -> bool:
    """True iff no positive root is even and not identically zero on I."""
    check_index_set(I, system.rank)
    return not system.even_nonzero_on(I.mask)


def admissibility_witness(system: RootSystem, I: IndexSet) -> Root | None:
    """The offending root for a non-admissible I, or None.

    Takes the lexicographically largest offending root, so for BC_r and
    I = I_reg the witness is the highest root 2e_1 = (2, ..., 2).
    """
    check_index_set(I, system.rank)
    bad = system.even_nonzero_on(I.mask)
    return system.positive_roots[bad.bit_length() - 1] if bad else None


def enumerate_admissible(system: RootSystem) -> list[IndexSet]:
    """All non-empty admissible subsets, sorted by bitmask value.

    The odd and support unions of each mask m extend those of m & (m-1)
    by the column of m's lowest index.
    """
    odd_columns, support_columns = system.odd_columns, system.support_columns
    size = 1 << system.rank
    odd, support = [0] * size, [0] * size
    admissible = []
    for m in range(1, size):
        rest = m & (m - 1)
        j = (m ^ rest).bit_length() - 1
        odd[m] = odd[rest] | odd_columns[j]
        support[m] = support[rest] | support_columns[j]
        if not support[m] & ~odd[m]:
            admissible.append(IndexSet(m))
    return admissible


# ---------------------------------------------------------------------------
# Closed-form classification, one predicate per type, on the bitmask of I (index j
# is bit j - 1).  The E-type tables are transcribed literally and turned into masks
# at import; brute force is the oracle that keeps them honest (verify_classification).


def _masks(*sets: set[int]) -> tuple[int, ...]:
    return tuple(IndexSet.from_iterable(s).mask for s in sets)


_E6_EXCLUDE_WITH_1 = _masks({1, 4}, {1, 5}, {1, 4, 5}, {1, 4, 6})
_E6_SUPERSETS_WITH_2 = _masks({2, 3, 5})
_E6_EXCLUDE_WITH_6 = _masks({3, 6}, {4, 6}, {3, 4, 6})  # sets with 1 are decided by the 1-branch

_E7_SUPERSETS_WITH_1 = _masks({1, 2, 4, 6}, {1, 4, 5, 6})
_E7_SUPERSETS_WITH_2 = _masks({2, 3, 4, 6}, {2, 3, 5, 6})

_E8_SUPERSETS_WITH_8 = _masks({1, 3, 4, 6, 8})
_E8_SUPERSETS_WITH_1 = _masks(
    {1, 2, 3, 5, 7},
    {1, 2, 4, 5, 7},
    {1, 2, 4, 6, 7},
    {1, 3, 4, 5, 7},
    {1, 3, 4, 6, 7},
    {1, 4, 5, 6, 7},
)
_E8_SUPERSETS_WITH_2 = _masks({2, 3, 4, 5, 7}, {2, 3, 4, 6, 7}, {2, 3, 5, 6, 7})


def _closed_form_e6(m: int) -> bool:
    if m & 1:
        return m not in _E6_EXCLUDE_WITH_1
    if m & 2:
        return all(m & ~big for big in _E6_SUPERSETS_WITH_2)
    if m >> 5 & 1:
        return m not in _E6_EXCLUDE_WITH_6
    return False


def _closed_form_e7(m: int) -> bool:
    if m >> 6 & 1:
        return m == 1 << 6 or _closed_form_e6(m ^ 1 << 6)
    if m & 1:
        return all(m & ~big for big in _E7_SUPERSETS_WITH_1)
    if m & 2:
        return all(m & ~big for big in _E7_SUPERSETS_WITH_2)
    return False


def _closed_form_e8(m: int) -> bool:
    if m >> 7 & 1:
        return all(m & ~big for big in _E8_SUPERSETS_WITH_8) and _closed_form_e7(m ^ 1 << 7)
    if m & 1:
        return all(m & ~big for big in _E8_SUPERSETS_WITH_1)
    if m & 2:
        return all(m & ~big for big in _E8_SUPERSETS_WITH_2)
    return False


def closed_form(rst: RootSystemType, I: IndexSet) -> bool:
    """The published per-type answer, independent of the parity machinery."""
    check_index_set(I, rst.rank)
    m = I.mask
    r = rst.rank
    fam = rst.family
    if fam == "A":
        return True
    if fam == "B":
        return not m & (m + 1)  # I = {1, ..., k}: no gap above bit 0
    if fam == "C":
        return m >> (r - 1) == 1  # r in I, as no bit lies above r - 1
    if fam == "D":
        return m >> (r - 2) != 0 or not m & (m + 1)  # r - 1 or r in I, or I = {1, ..., k}
    if fam == "E":
        return {6: _closed_form_e6, 7: _closed_form_e7, 8: _closed_form_e8}[r](m)
    if fam == "F":
        return (m & 0b11) == 0b11
    if fam == "G":
        return m == 0b11
    if fam == "BC":
        return False
    raise AssertionError(fam)


@dataclass(frozen=True)
class ClassificationReport:
    """Brute-force admissible sets for one type, checked against the closed form."""

    type: RootSystemType
    admissible_sets: tuple[IndexSet, ...]
    closed_form_agrees: bool
    witness_discrepancies: tuple[tuple[IndexSet, bool, bool], ...]  # (I, closed form, brute force)

    def to_dict(self) -> dict:
        return {
            "family": self.type.family,
            "rank": self.type.rank,
            "admissible_sets": [list(I) for I in self.admissible_sets],
            "count": len(self.admissible_sets),
            "closed_form_agrees": self.closed_form_agrees,
            "discrepancies": [
                {"set": list(I), "closed_form": exp, "brute_force": got}
                for I, exp, got in self.witness_discrepancies
            ],
        }

    def to_markdown(self) -> str:
        head = f"## {self.type}\n\n"
        rows = [
            "| admissible set | size |",
            "| --- | --- |",
        ]
        for I in self.admissible_sets:
            rows.append(f"| {I} | {len(I)} |")
        tail = f"\n{len(self.admissible_sets)} admissible sets; closed form agrees: {self.closed_form_agrees}\n"
        return head + "\n".join(rows) + "\n" + tail


def verify_classification(rst: RootSystemType) -> ClassificationReport:
    """Compare the parity predicate with the closed form over every non-empty subset."""
    admissible = tuple(enumerate_admissible(build(rst)))
    members = {I.mask for I in admissible}
    discrepancies = []
    for mask in range(1, 1 << rst.rank):  # increasing mask, so discrepancies come sorted
        expected, got = closed_form(rst, IndexSet(mask)), mask in members
        if expected != got:
            discrepancies.append((IndexSet(mask), expected, got))
    return ClassificationReport(rst, admissible, not discrepancies, tuple(discrepancies))


def is_union_closed(system: RootSystem) -> bool:
    """Whether the admissible family is closed under pairwise union (it must be)."""
    masks = {I.mask for I in enumerate_admissible(system)}
    return all(a | b in masks for a, b in combinations(masks, 2))


def find_all_even_root(system: RootSystem) -> Root | None:
    """The lexicographically largest positive root with every coefficient even, if any.

    Reduced systems have none; BC_r yields 2e_1 = (2, ..., 2).
    """
    return admissibility_witness(system, IndexSet.full(system.rank))


def full_set_admissible_iff_reduced(rst: RootSystemType) -> bool:
    """Whether I_reg is admissible: true exactly when no all-even root exists.

    Reduced types always pass (every root has an odd coefficient); BC_r fails
    with find_all_even_root picking out the witness 2e_1.
    """
    return find_all_even_root(build(rst)) is None


def extrinsic_symmetric_indices(system: RootSystem) -> IndexSet:
    """Indices whose simple root has coefficient one in the highest root."""
    return IndexSet.from_iterable(
        j for j in range(1, system.rank + 1) if system.highest_root[j - 1] == 1
    )
