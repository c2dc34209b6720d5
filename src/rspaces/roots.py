"""Irreducible root systems as exact integer data in the simple-root basis.

Every root is a tuple of non-negative integer coefficients (c_1, ..., c_r)
with respect to the simple roots in Bourbaki numbering.  Every system is
generated from its Cartan matrix by raising the simple roots with simple
reflections.  The non-reduced BC_r has the simple roots and Cartan matrix
of B_r, and its roots are those of B_r plus 2a for each short root a = e_i
(Bourbaki, Lie Groups and Lie Algebras, Ch. VI, Sec. 1.4 and Plate II).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from math import factorial
from typing import Iterable, Iterator

Root = tuple[int, ...]

# One row per family: its least rank, its greatest rank (None: no bound), and
# |positive roots| and |W| at rank r (Bourbaki, Lie Groups and Lie Algebras,
# Ch. VI, Plates I-IX).  BC_r has the Weyl group of B_r.
_FAMILY_TABLE = {
    "A": (1, None, lambda r: r * (r + 1) // 2, lambda r: factorial(r + 1)),
    "B": (2, None, lambda r: r * r, lambda r: 2**r * factorial(r)),
    "C": (2, None, lambda r: r * r, lambda r: 2**r * factorial(r)),
    "D": (4, None, lambda r: r * (r - 1), lambda r: 2 ** (r - 1) * factorial(r)),
    "E": (6, 8, lambda r: {6: 36, 7: 63, 8: 120}[r], lambda r: {6: 51840, 7: 2903040, 8: 696729600}[r]),
    "F": (4, 4, lambda r: 24, lambda r: 1152),
    "G": (2, 2, lambda r: 6, lambda r: 12),
    "BC": (1, None, lambda r: r * r + r, lambda r: 2**r * factorial(r)),
}
FAMILIES = tuple(_FAMILY_TABLE)


def standard_types(max_rank: int = 8) -> Iterator[RootSystemType]:
    """Every family at every rank up to max_rank that the family admits, in table order."""
    for fam, (least, greatest, _, _) in _FAMILY_TABLE.items():
        for r in range(least, min(max_rank, greatest or max_rank) + 1):
            yield RootSystemType(fam, r)


class RootSystemError(ValueError):
    """Raised for invalid root-system parameters or queries."""


@dataclass(frozen=True, order=True)
class RootSystemType:
    """A family label plus rank, e.g. RootSystemType("B", 3)."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise RootSystemError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if type(self.rank) is not int:  # bool, float and str ranks pass or break the rule below
            raise RootSystemError(f"rank must be an int, got {self.rank!r}")
        least, greatest, _, _ = _FAMILY_TABLE[self.family]
        if greatest is None:
            if self.rank < least:
                raise RootSystemError(f"family {self.family} requires rank >= {least}, got {self.rank}")
        elif self.rank not in range(least, greatest + 1):
            ranks = ", ".join(map(str, range(least, greatest + 1)))
            rule = f"== {least}" if least == greatest else f"in {{{ranks}}}"
            raise RootSystemError(f"family {self.family} requires rank {rule}, got {self.rank}")

    @property
    def reduced(self) -> bool:
        """False exactly for the BC family."""
        return self.family != "BC"

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def cartan_matrix(rst: RootSystemType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with entry [k][j] = <alpha_k, alpha_j^vee>, Bourbaki numbering.

    Each diagram is the chain 1-2-...-r, except that D's node r forks from
    node r-2 and E's node 2 hangs on node 4, with at most one multiple bond
    (k, j, <alpha_k, alpha_j^vee>) written on top.  BC_r takes the B_r matrix.
    """
    fam, r = rst.family, rst.rank
    edges = [(j, j + 1) for j in range(1, r)]
    if fam == "D":
        edges[-1] = (r - 2, r)
    elif fam == "E":
        # chain 1-3-4-5-6(-7)(-8), node 2 attached to node 4
        edges[:3] = [(1, 3), (3, 4), (2, 4)]
    bond = {
        "B": (r - 1, r, -2),  # alpha_r short
        "C": (r, r - 1, -2),  # alpha_r long
        "F": (2, 3, -2),  # alpha_2 long, alpha_3 short
        "G": (2, 1, -3),  # alpha_1 short, alpha_2 long
    }.get("B" if fam == "BC" else fam)
    m = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
    for a, b in edges:
        m[a - 1][b - 1] = m[b - 1][a - 1] = -1
    if bond and r > 1:  # B_1, reached only through BC_1, is A_1 and has no bond
        k, j, value = bond
        m[k - 1][j - 1] = value
    return tuple(map(tuple, m))


@dataclass(frozen=True)
class RootSystem:
    """Immutable positive-root data for one irreducible system.

    positive_roots is sorted lexicographically; parity_masks holds, in the
    same order, each root's (bitmask of odd coefficients, bitmask of nonzero
    coefficients), with bit j-1 for index j.  odd_columns and
    support_columns are the same bits transposed: column j-1 is a root
    bitset, with bit i for positive_roots[i], of the roots whose coefficient
    c_j is odd, respectively nonzero.  The methods below fold columns over
    the set bits of an index mask and return root bitsets.  All arithmetic
    is exact integer, so instances are safe to share across threads.
    """

    type: RootSystemType
    positive_roots: tuple[Root, ...]
    cartan: tuple[tuple[int, ...], ...]
    highest_root: Root
    simple_roots: tuple[Root, ...]
    parity_masks: tuple[tuple[int, int], ...]
    odd_columns: tuple[int, ...] = field(repr=False, compare=False)
    support_columns: tuple[int, ...] = field(repr=False, compare=False)

    @property
    def rank(self) -> int:
        return self.type.rank

    @property
    def all_roots(self) -> int:
        """The bitset of every positive root."""
        return (1 << len(self.positive_roots)) - 1

    def odd_on(self, label: int) -> int:
        """Roots whose evaluation on xi_label is odd: the XOR of its odd columns."""
        return _xor_fold(self.odd_columns, label)

    def nonzero_on(self, mask: int) -> int:
        """Roots with a nonzero coefficient in mask: the OR of its support columns."""
        return _or_fold(self.support_columns, mask)

    def even_nonzero_on(self, mask: int) -> int:
        """Roots nonzero on mask with every coefficient in mask even."""
        return _or_fold(self.support_columns, mask) & ~_or_fold(self.odd_columns, mask)

    def roots_at(self, bits: int) -> tuple[Root, ...]:
        """The positive roots in a bitset, in positive_roots order."""
        # bin's digits, lowest bit first, as 0/1 bytes selecting roots
        selectors = bin(bits)[:1:-1].encode().translate(_BIT_SELECTORS)
        return tuple(compress(self.positive_roots, selectors))

    def __str__(self) -> str:
        return str(self.type)


_BIT_SELECTORS = bytes.maketrans(b"01", b"\0\1")

_BUILT: dict[RootSystemType, RootSystem] = {}


def build(rst: RootSystemType) -> RootSystem:
    """The root system of the given type, constructed once and then shared."""
    if rst in _BUILT:
        return _BUILT[rst]
    cartan = cartan_matrix(rst)
    r = rst.rank
    simple = tuple(tuple(1 if k == j else 0 for k in range(r)) for j in range(r))
    roots = _raise_simple_roots(simple, cartan)
    if rst.family == "BC":
        # the short roots e_i of B_r are those with c_r = 1; BC_r adds each 2e_i
        roots |= {tuple(2 * c for c in root) for root in roots if root[-1] == 1}
    roots = tuple(sorted(roots))
    expected = positive_root_count(rst)
    if len(roots) != expected:
        raise AssertionError(f"{rst}: generated {len(roots)} roots, expected {expected}")
    highest = max(roots, key=sum)
    if any(any(c > h for c, h in zip(root, highest)) for root in roots):
        raise AssertionError(f"{rst}: no coefficient-wise maximal root")
    masks = tuple(
        (
            sum(1 << k for k, c in enumerate(root) if c & 1),
            sum(1 << k for k, c in enumerate(root) if c),
        )
        for root in roots
    )
    odd_columns = tuple(sum(1 << i for i, root in enumerate(roots) if root[j] & 1) for j in range(r))
    support_columns = tuple(sum(1 << i for i, root in enumerate(roots) if root[j]) for j in range(r))
    system = _BUILT[rst] = RootSystem(rst, roots, cartan, highest, simple, masks, odd_columns, support_columns)
    return system


def _or_fold(columns: tuple[int, ...], mask: int) -> int:
    """The OR of columns[j] over the set bits j of mask."""
    acc = 0
    while mask:
        low = mask & -mask
        acc |= columns[low.bit_length() - 1]
        mask ^= low
    return acc


def _xor_fold(columns: tuple[int, ...], mask: int) -> int:
    """The XOR of columns[j] over the set bits j of mask."""
    acc = 0
    while mask:
        low = mask & -mask
        acc ^= columns[low.bit_length() - 1]
        mask ^= low
    return acc


def positive_root_count(rst: RootSystemType) -> int:
    """Closed-form |positive roots| per type."""
    _, _, count, _ = _FAMILY_TABLE[rst.family]
    return count(rst.rank)


def weyl_group_order(rst: RootSystemType) -> int:
    """Order of the Weyl group; BC_r shares the B_r group."""
    _, _, _, order = _FAMILY_TABLE[rst.family]
    return order(rst.rank)


def _raise_simple_roots(simple: tuple[Root, ...], cartan: tuple[tuple[int, ...], ...]) -> set[Root]:
    """Positive roots of the reduced system with these simple roots and Cartan matrix.

    Every positive root is a simple root raised by simple reflections
    (Humphreys, Introduction to Lie Algebras, 10.2-10.3): when
    <b, alpha_j^vee> < 0, s_j b = b - <b, alpha_j^vee> alpha_j is a higher
    positive root.  Each root carries its pairing vector (<b, alpha_k^vee>)_k;
    that of s_j b is b's minus <b, alpha_j^vee> times row j of the Cartan matrix.
    """
    todo = list(zip(simple, cartan))  # (root, pairing vector); a simple root's is its Cartan row
    roots = set(simple)
    while todo:
        b, pairings = todo.pop()
        for j, pairing in enumerate(pairings):
            if pairing < 0:
                raised = (*b[:j], b[j] - pairing, *b[j + 1 :])
                if raised not in roots:
                    roots.add(raised)
                    todo.append((raised, tuple(p - pairing * c for p, c in zip(pairings, cartan[j]))))
    return roots


def coefficient(root: Root, j: int) -> int:
    """The j-th simple-root coefficient c_j (1-indexed); equals alpha evaluated on xi_j."""
    if not 1 <= j <= len(root):
        raise IndexError(f"index {j} out of range for rank {len(root)}")
    return root[j - 1]


def evaluate_on_xi_sum(root: Root, indices: Iterable[int]) -> int:
    """Evaluate the root on xi_J = sum of dual-basis vectors over J; empty J gives 0."""
    return sum(coefficient(root, j) for j in indices)


def to_json(system: RootSystem) -> str:
    """Canonical JSON of {family, rank, positive_roots, highest_root, cartan}, keys sorted."""
    import json

    data = {
        "family": system.type.family,
        "rank": system.type.rank,
        "positive_roots": [list(root) for root in system.positive_roots],
        "highest_root": list(system.highest_root),
        "cartan": [list(row) for row in system.cartan],
    }
    return json.dumps(data, sort_keys=True, separators=(",", ": "), indent=1)
