"""Independent oracles for every output the benchmark checks.

Nothing here calls the library's Weyl-order table, its stabilizer code, its
parity masks or its orbit BFS.  The oracles start from the positive-root list
and the Cartan matrix of a built system and use only definitions:

* orbit sizes from root heights (Macdonald, "The Poincare series of a Coxeter
  group", Math. Ann. 199, 1972): |W_J| = prod (ht a + 1) / ht a over the
  positive roots of the parabolic subsystem, |W| the same over all roots, and
  the orbit of xi_I has |W| / |W_J| points, J the complement of I;
* admissibility and its witness from the literal parity definition;
* subgroup elements from brute-force XOR closure;
* fixed root sets by evaluating each root on every subgroup element;
* small orbits from a plain-Python BFS over simple reflections.
"""

from __future__ import annotations

import bisect
import sys
from array import array
from functools import lru_cache
from itertools import chain, pairwise


class Mismatch(Exception):
    """An output disagreed with its oracle."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise Mismatch(what)


def xor_closure(masks) -> frozenset[int]:
    """Every element of the GF(2) span of the given bitmasks, identity included."""
    elems = {0}
    for m in masks:
        if m not in elems:
            elems |= {e ^ m for e in elems}
    return frozenset(elems)


def submasks(mask: int) -> frozenset[int]:
    return xor_closure(1 << k for k in range(mask.bit_length()) if mask >> k & 1)


class SystemOracle:
    """Reference answers for one root system, from its roots and Cartan matrix."""

    def __init__(self, roots, cartan) -> None:
        self.roots = tuple(sorted(tuple(a) for a in roots))
        self.cartan = tuple(tuple(row) for row in cartan)
        self.rank = len(self.cartan)
        root_set = set(self.roots)
        # BC_r carries the doubled roots 2e_i; the Weyl group is that of the
        # reduced system, so they are left out of the height products.
        reduced = [
            a for a in self.roots
            if not (all(c % 2 == 0 for c in a) and tuple(c // 2 for c in a) in root_set)
        ]
        self._heights = [(sum(a), _support(a)) for a in reduced]
        self.weyl_order = self._height_product(0)
        self._support = [_support(a) for a in self.roots]
        self._odd = [_odd(a) for a in self.roots]

    def _height_product(self, mask: int) -> int:
        num = den = 1
        for h, sup in self._heights:
            if not sup & mask:
                num *= h + 1
                den *= h
        order, rem = divmod(num, den)
        expect(rem == 0, f"height product {num}/{den} is not an integer")
        return order

    @lru_cache(maxsize=None)
    def orbit_size(self, mask: int) -> int:
        """|W| / |W_J| for the parabolic subgroup fixing xi_I."""
        return self.weyl_order // self._height_product(mask)

    def _even_on(self, k: int, mask: int) -> bool:
        return not self._odd[k] & mask and bool(self._support[k] & mask)

    @lru_cache(maxsize=None)
    def is_admissible(self, mask: int) -> bool:
        return not any(self._even_on(k, mask) for k in range(len(self.roots)))

    @lru_cache(maxsize=None)
    def admissibility_witness(self, mask: int):
        """Lexicographically largest root that is even and nonzero on I, or None."""
        bad = [a for k, a in enumerate(self.roots) if self._even_on(k, mask)]
        return max(bad) if bad else None

    @lru_cache(maxsize=None)
    def vanishing(self, mask: int) -> frozenset:
        return frozenset(a for a, sup in zip(self.roots, self._support) if not sup & mask)

    def fixed(self, elements) -> frozenset:
        """Roots whose evaluation on xi_J is even for every element label J."""
        return frozenset(
            a for a, odd in zip(self.roots, self._odd)
            if all((odd & J).bit_count() % 2 == 0 for J in elements)
        )

    def reflect(self, v: tuple[int, ...], j: int) -> tuple[int, ...]:
        """Simple reflection s_j (0-based) on dual-basis coordinates."""
        vj = v[j]
        return tuple(v[k] - vj * self.cartan[k][j] for k in range(self.rank))

    def orbit_points(self, mask: int) -> list[tuple[int, ...]]:
        """Sorted Weyl orbit of xi_I by plain BFS; for small orbits only."""
        start = tuple(mask >> k & 1 for k in range(self.rank))
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for j in range(self.rank):
                    w = self.reflect(v, j)
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return sorted(seen)

    def check_orbit_points(self, mask: int, points, dump: bytes, rng) -> None:
        """Check a materialised orbit without enumerating it again.

        The points must be strictly increasing (so sorted and distinct) and
        contain xi_I, their number must be the height-formula size, a sample
        of them must have every simple reflection inside the list, and the
        dump must be the points as little-endian int16, row after row.
        """
        where = f"orbit of mask {mask}"
        expect(len(points) == self.orbit_size(mask), f"{where}: {len(points)} points")
        expect(all(a < b for a, b in pairwise(points)), f"{where}: not strictly increasing")
        start = tuple(mask >> k & 1 for k in range(self.rank))
        expect(_contains(points, start), f"{where}: xi_I missing")
        for v in rng.sample(points, min(16, len(points))):
            for j in range(self.rank):
                expect(_contains(points, self.reflect(v, j)), f"{where}: s_{j + 1}{v} missing")
        flat = array("h", chain.from_iterable(points))
        if sys.byteorder == "big":
            flat.byteswap()
        expect(flat.tobytes() == dump, f"{where}: dump differs from the points")


def _contains(points, v) -> bool:
    i = bisect.bisect_left(points, v)
    return i < len(points) and points[i] == v


def _support(root) -> int:
    return sum(1 << k for k, c in enumerate(root) if c)


def _odd(root) -> int:
    return sum(1 << k for k, c in enumerate(root) if c & 1)


def classification_sections(markdown: str) -> dict[str, str]:
    """Split docs/classification.md into {type name: section text}."""
    sections = {}
    for chunk in markdown.split("\n## ")[1:]:
        name = chunk.split("\n", 1)[0].strip()
        sections[name] = ("## " + chunk).rstrip("\n")
    return sections
